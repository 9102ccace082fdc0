"""Time stackinfer's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIGS_JSON

Imports stackinfer from SRC_DIR, validates each config of the JSON list and
builds its grid and models, then prints the elapsed seconds. Interpreter
start-up is not included.
"""

import json
import sys
from time import perf_counter


def main() -> None:
    src, docs = sys.argv[1], json.loads(sys.argv[2])
    start = perf_counter()
    sys.path.insert(0, src)
    from stackinfer.config import validate_config

    for doc in docs:
        cfg = validate_config(doc)
        grid = cfg.build_grid()
        cfg.build_follower()
        cfg.build_leader(grid)
    print(repr(perf_counter() - start))


if __name__ == "__main__":
    main()
