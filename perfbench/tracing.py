"""Outside-in span recorder for the stackinfer benchmark.

``Recorder.install()`` replaces the public entry points of every stackinfer
layer with timing wrappers and ``uninstall()`` puts the originals back; the
package source is never edited. Each wrapper records a span (id, name, start,
end, parent span, thread id, run id) in memory and adds to the counts taken at
the same boundary. A layer's self time is its spans' duration minus the part
covered by their child spans.

A call that re-enters the same span key (``normals`` inside ``normal_matrix``,
``compute_g_batch`` inside ``compute_g``) is folded into the enclosing span:
its counts are kept, its time already belongs to the same key, and the
per-path RNG calls stay cheap enough to trace.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs[name]


def _rows(array) -> int:
    return int(getattr(array, "shape", (1,))[0])


def _size(array) -> int:
    return int(getattr(array, "size", 0))


def _draws(args, kwargs) -> int:
    size = args[0] if args else kwargs.get("size")
    if size is None:
        return 1
    if isinstance(size, int):
        return size
    return math.prod(size)


class Recorder:
    """Spans and counts for one benchmark run, kept in memory until written."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, thread, run)
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters = []
        self._counters_lock = threading.Lock()
        self._patches = []

    # -- span and count primitives -------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> Counter:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._counters_lock:
                self._counters.append(counts)
        return counts

    def current_span(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    def timed(self, name, fn, args=(), kwargs=None, parent=None):
        """Call fn inside a span called name; fold it into an open span of the same name."""
        kwargs = kwargs or {}
        stack = self._stack()
        if stack and stack[-1][1] == name:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1][0]
        stack.append((span_id, name))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), self.run_id)
            )

    def count(self, key, amount=1):
        self._counts()[key] += amount

    def take_counts(self) -> Counter:
        """Sum and reset the counts of every thread; call between runs only."""
        total = Counter()
        with self._counters_lock:
            for counts in self._counters:
                total.update(counts)
                counts.clear()
        return total

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, modules, home, attr, name, counter=None):
        """Wrap home.attr and every module-level alias of it in ``modules``."""
        original = getattr(home, attr)

        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(self, args, kwargs)
            return self.timed(name, original, args, kwargs)

        wrapper.__wrapped__ = original
        for module in modules:
            if getattr(module, attr, None) is original:
                self._patch(module, attr, wrapper)

    def install(self):
        """Wrap the public entry points of every layer (idempotent per uninstall)."""
        import stackinfer
        from stackinfer import cli, config, core, infer, policy, riccati, simulate, studies

        if self._patches:
            return
        modules = [stackinfer, cli, config, core, infer, policy, riccati, simulate, studies]

        def fn(home, attr, name, counter=None):
            self._patch_function(modules, home, attr, name, counter)

        # core: counter-addressed RNG streams.
        rec = self
        rng_cls = core.RngContract
        stream, normals, normal_matrix = rng_cls.stream, rng_cls.normals, rng_cls.normal_matrix

        # These run once per path inside normal_matrix, so the folded case
        # skips timed() to keep the wrapper cost out of core.rng's self time.
        def traced_stream(contract, *key):
            rec._counts()["core.rng_streams"] += 1
            stack = rec._stack()
            if stack and stack[-1][1] == "core.rng":
                return stream(contract, *key)
            return _TracedGenerator(rec.timed("core.rng", stream, (contract, *key)), rec)

        def traced_normals(contract, n, *key):
            rec._counts()["core.rng_draws"] += n
            stack = rec._stack()
            if stack and stack[-1][1] == "core.rng":
                return normals(contract, n, *key)
            return rec.timed("core.rng", normals, (contract, n, *key))

        def traced_normal_matrix(contract, *args, **kwargs):
            return rec.timed("core.rng", normal_matrix, (contract, *args), kwargs)

        self._patch(rng_cls, "stream", traced_stream)
        self._patch(rng_cls, "normals", traced_normals)
        self._patch(rng_cls, "normal_matrix", traced_normal_matrix)

        # riccati: backward RK4 solves; one RK4 step per grid step.
        def rk4(index, name, grid_of):
            return lambda r, a, k: r.count(
                "riccati.rk4_steps", grid_of(_arg(a, k, index, name)).n_steps
            )

        fn(riccati, "solve_follower_a", "riccati.follower_a", rk4(1, "grid", lambda g: g))
        fn(riccati, "solve_follower_bc", "riccati.follower_bc",
           rk4(0, "fr", lambda fr: fr.grid))
        fn(riccati, "solve_leader_system", "riccati.leader",
           rk4(2, "coeffs", lambda c: c.grid))
        fn(riccati, "compute_coefficients", "riccati.other")
        fn(riccati, "horizon_bound", "riccati.other")

        # simulate: Euler path batches and the score / cost functionals.
        def path_steps(key):
            return lambda r, a, k: r.count(key, _size(_arg(a, k, 4, "shocks")))

        fn(simulate, "simulate_leader_batch", "simulate.leader",
           path_steps("simulate.leader_path_steps"))
        fn(simulate, "simulate_follower_batch", "simulate.follower",
           path_steps("simulate.follower_path_steps"))
        fn(simulate, "simulate_leader", "simulate.leader")
        fn(simulate, "simulate_follower", "simulate.follower")
        fn(simulate, "compute_g_batch", "simulate.score")
        fn(simulate, "compute_g", "simulate.score")
        fn(simulate, "primary_cost_batch", "simulate.score")

        # policy: control sessions are wrapped at session(); SPSA at optimize_policy.
        for cls in (policy.RiccatiPolicy, policy.RecurrentPolicy, policy.FunctionPolicy):
            self._patch(cls, "session", self._session_wrapper(cls.session))
        fn(policy, "optimize_policy", "policy.spsa",
           lambda r, a, k: r.count("policy.spsa_iters", _arg(a, k, 0, "cfg").budget))
        fn(policy, "initial_policy", "policy.spsa")

        # infer: continuous and discrete maximum-likelihood estimates.
        fn(infer, "mle_continuous", "infer.mle", lambda r, a, k: r.count("infer.estimates"))
        fn(infer, "mle_continuous_batch", "infer.mle",
           lambda r, a, k: r.count("infer.estimates", _rows(_arg(a, k, 0, "x_paths"))))
        fn(infer, "mle_discrete_joint", "infer.discrete",
           lambda r, a, k: r.count("infer.estimates"))

        # studies: the dispatcher and the chunked thread pool (a private helper,
        # wrapped so that each chunk becomes a span on its worker thread).
        fn(studies, "run_study", "studies.run")
        run_chunked = studies._run_chunked

        def traced_run_chunked(n_paths, threads, work):
            parent = rec.current_span()  # the studies.chunked span; chunks may run elsewhere

            def traced_work(lo, hi):
                rec.count("studies.chunks")
                return rec.timed("studies.chunk", work, (lo, hi), parent=parent)

            return run_chunked(n_paths, threads, traced_work)

        def chunked_span(n_paths, threads, work):
            return rec.timed("studies.chunked", traced_run_chunked, (n_paths, threads, work))

        self._patch(studies, "_run_chunked", chunked_span)

        # config and cli: validation and result writing.
        fn(config, "validate_config", "config.validate")
        write_result = cli.write_result

        def traced_write_result(*args, **kwargs):
            written = rec.timed("cli.write", write_result, args, kwargs)
            rec.count("cli.bytes_written", sum(p.stat().st_size for p in written))
            return written

        self._patch(cli, "write_result", traced_write_result)

    def _session_wrapper(self, session):
        rec = self

        def traced_session(policy_obj, n_paths):
            inner = rec.timed("policy.control", session, (policy_obj, n_paths))
            return _TracedSession(inner, rec)

        return traced_session

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, thread, run in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread, "run": run,
                }) + "\n")


class _TracedSession:
    """Control session proxy: one policy.control span per node evaluation."""

    def __init__(self, inner, rec: Recorder):
        self._inner = inner
        self._rec = rec

    def controls(self, j, x_prefix, aux, aux2):
        self._rec.count("policy.control_calls")
        self._rec.count("policy.control_rows", _rows(x_prefix))
        return self._rec.timed("policy.control", self._inner.controls, (j, x_prefix, aux, aux2))


class _TracedGenerator:
    """Generator proxy for streams drawn outside the counter-addressed helpers."""

    def __init__(self, gen, rec: Recorder):
        self._gen = gen
        self._rec = rec

    def _draw(self, method, args, kwargs):
        self._rec.count("core.rng_draws", _draws(args, kwargs))
        return self._rec.timed("core.rng", getattr(self._gen, method), args, kwargs)

    def standard_normal(self, *args, **kwargs):
        return self._draw("standard_normal", args, kwargs)

    def random(self, *args, **kwargs):
        return self._draw("random", args, kwargs)

    def integers(self, low, high=None, size=None, *args, **kwargs):
        self._rec.count("core.rng_draws", _draws((size,), {}))
        return self._rec.timed(
            "core.rng", self._gen.integers, (low, high, size, *args), kwargs
        )

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Self time summed per span name over the given spans."""
    children = defaultdict(list)
    for span_id, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = defaultdict(float)
    for span_id, name, start, end, _, _, _ in spans:
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(span_id, ())]
        covered = _union_length([(lo, hi) for lo, hi in kids if hi > lo])
        out[name] += (end - start) - covered
    return dict(out)
