"""Command-line entry points.

``stackinfer run --config cfg.json [--threads N] [--out DIR]`` executes one
study and writes its CSV tables plus a JSON summary (config echo and
provenance included) to the output directory. ``stackinfer validate`` checks
a config, and loads the policy file it names, without running anything; it
imports no solver module unless the config names such a file. The default
output directory can be set through the STACKINFER_OUT environment variable.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(blow-up, degenerate ensemble, float overflow, or a result holding a
non-finite number, of which nothing is written; the message names the
study), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .config import ConfigError, ExperimentConfig, load_config
from .core import BlowUpError, DegenerateEnsembleError, DegeneratePathError, SolverFailureError

if TYPE_CHECKING:
    from .studies import StudyResult

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

OUTPUT_DIR_ENV = "STACKINFER_OUT"


def _format_cell(value) -> str:
    # repr() keeps the shortest round-trip float form, making CSV bytes
    # independent of locale and thread count. float() first: numpy scalars
    # subclass float, but their repr carries the type name.
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def write_result(result: StudyResult, cfg: ExperimentConfig, out_dir: Path) -> list[Path]:
    """Write the summary JSON and CSV tables; returns the paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    formats = cfg.output["formats"]
    if "json" in formats:
        doc = {
            "study": result.name,
            "provenance": result.provenance,
            "summary": result.summary,
            "config": cfg.raw,
        }
        path = out_dir / f"{result.name}_summary.json"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        written.append(path)
    if "csv" in formats:
        for table, (header, rows) in result.tables.items():
            path = out_dir / f"{result.name}_{table}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_format_cell(v) for v in row])
            written.append(path)
    return written


def _non_finite(value, field: str):
    """(field, value) of the first non-finite float in ``value``, or None."""
    if isinstance(value, dict):
        items = ((f"{field}.{key}" if field else key, v) for key, v in value.items())
    elif isinstance(value, list):
        items = ((f"{field}[{i}]", v) for i, v in enumerate(value))
    else:
        bad = isinstance(value, float) and not math.isfinite(value)
        return (field, float(value)) if bad else None
    return next(filter(None, (_non_finite(v, path) for path, v in items)), None)


def _resolve_out_dir(cli_value: str | None, cfg: ExperimentConfig) -> Path:
    if cli_value:
        return Path(cli_value)
    if cfg.output["directory"]:
        return Path(cfg.output["directory"])
    return Path(os.environ.get(OUTPUT_DIR_ENV, "results"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackinfer",
        description="Run leader-follower strategic-inference studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one study from a config file")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; all work runs on one thread",
    )
    run_p.add_argument("--out", default=None, help="output directory (overrides config/env)")

    val_p = sub.add_parser("validate", help="validate a config file and exit")
    val_p.add_argument("--config", required=True, help="path to the JSON config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "run" and args.threads < 1:
        print("config error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "validate":
            if cfg.policy_file is not None:
                from .studies import load_study_policy
                load_study_policy(cfg, cfg.build_grid())
            print(f"ok: {cfg.study_name} config is valid")
            return EXIT_OK
        from .studies import run_study
        result = run_study(cfg, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowUpError, DegenerateEnsembleError, DegeneratePathError, SolverFailureError,
            OverflowError) as exc:
        kind = "float overflow: " if isinstance(exc, OverflowError) else ""
        print(f"numerical failure: {cfg.study_name}: {kind}{exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    # Strict JSON and CSV readers reject inf and NaN, so such a result is a failure.
    cells = {table: [dict(zip(header, row)) for row in rows]
             for table, (header, rows) in result.tables.items()}
    failure = _non_finite({"summary": result.summary, **cells}, "")
    if failure:
        print(f"numerical failure: {result.name}: {failure[0]} is {failure[1]}", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        written = write_result(result, cfg, _resolve_out_dir(args.out, cfg))
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
