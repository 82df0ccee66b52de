"""Span tracing of the ebicglm layers, installed from outside the package.

``install`` rebinds the public entry points, the ``LinkFamily`` kernel
methods and every binding of the fitting kernel ``_newton`` to wrappers that
record one span per call: name, start, end and the span that was open when
the call began. Spans live in flat arrays in memory. Pool tasks run in
forked workers; each task clears the copy of the recorder that fork
inherited, records its own spans and writes them to a file when it ends, and
``merge`` joins those files with the main process's spans. ``layer_metrics`` then
derives the per-layer counters and times from the merged spans.

Nothing under ``src/`` is edited; restarting the process removes the
wrappers.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

# fit flags, one bit each
CONVERGED, FALLBACK, SEPARATED, RANK_DEFICIENT, CANONICAL = 1, 2, 4, 8, 16

LINKS = ("logit", "cloglog")  # links reported one by one
KERNELS = ("newton_terms", "log_lik")
ENTRY_POINTS = {
    # dotted path of the original -> span name
    "ebicglm.ebic.ebic_score": "ebic.score",
    "ebicglm.select.screen_mme": "select.screen",
    "ebicglm.select.forward_select": "select.forward",
    "ebicglm.select.select_pipeline": "select.pipeline",
    "ebicglm.simgen.generate_replicate": "simgen.generate",
    "ebicglm.experiments.run_simulation_batch": "experiments.batch",
    "ebicglm.experiments.cv_select_link": "experiments.cv",
    "ebicglm.experiments.real_data_workflow": "experiments.workflow",
    "ebicglm.cli.main": "cli.main",
}
EXPERIMENT_ENTRIES = ("experiments.batch", "experiments.cv", "experiments.workflow")


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.names: list = []
        self.missing: list = []  # boundaries not found in the package
        self._ids: dict = {}
        self.counters: dict = {}
        self._clear()

    def _clear(self):
        self.nid = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        # one row per _newton call
        self.fit_span = array("i")
        self.fit_n = array("i")
        self.fit_k = array("i")
        self.fit_iters = array("i")
        self.fit_flags = array("B")

    def clear(self):
        self._clear()
        self.counters = {}

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.nid.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, value=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def record_fit(self, span, X, lf, result, rank_deficient=False):
        n, k = X.shape
        flags = CANONICAL if lf.h_curvature_zero else 0
        if rank_deficient:
            flags |= RANK_DEFICIENT
            iters = 1
        else:
            iters = result.iterations
            flags |= (CONVERGED * result.converged
                      | FALLBACK * result.used_fisher_fallback
                      | SEPARATED * result.quasi_separated)
        self.fit_span.append(span)
        self.fit_n.append(n)
        self.fit_k.append(k)
        self.fit_iters.append(iters)
        self.fit_flags.append(flags)

    def dump(self, path, root_parent: int = -1) -> None:
        """Write every span and counter; ``root_parent`` is the main-process
        span that roots this process's top-level spans."""
        keys = sorted(self.counters)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            nid=np.frombuffer(self.nid, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            fit_span=np.frombuffer(self.fit_span, dtype=np.int32),
            fit_n=np.frombuffer(self.fit_n, dtype=np.int32),
            fit_k=np.frombuffer(self.fit_k, dtype=np.int32),
            fit_iters=np.frombuffer(self.fit_iters, dtype=np.int32),
            fit_flags=np.frombuffer(self.fit_flags, dtype=np.uint8),
            counter_keys=np.array(keys, dtype=str),
            counter_values=np.array([float(self.counters[k]) for k in keys]),
            root_parent=np.array(root_parent),
        )


# The wrappers pickled into pool workers (``_TaskCall``) must reach the
# recorder of the process they run in, so the active one is a module global.
_ACTIVE: Recorder | None = None


def _spanned(rec: Recorder, name: str, fn, after=None):
    nid = rec.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.begin(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.finish(i)
        if after is not None:
            after(rec, out, args)
        return out

    return wrapper


def _kernel(rec: Recorder, kernel: str, fn):
    ids: dict = {}

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        nid = ids.get(self.link.name)
        if nid is None:
            nid = ids[self.link.name] = rec.intern(f"links.{self.link.name}.{kernel}")
        i = rec.begin(nid)
        try:
            return fn(self, *args, **kwargs)
        finally:
            rec.finish(i)

    return wrapper


def _newton_wrapper(rec: Recorder, fn, rank_deficient_exc):
    nid = rec.intern("glm.fit")

    @functools.wraps(fn)
    def wrapper(y, X, lf, *args, **kwargs):
        i = rec.begin(nid)
        try:
            out = fn(y, X, lf, *args, **kwargs)
        except rank_deficient_exc:
            rec.finish(i)
            rec.record_fit(i, X, lf, None, rank_deficient=True)
            raise
        except BaseException:
            rec.finish(i)
            raise
        rec.finish(i)
        rec.record_fit(i, X, lf, out)
        return out

    return wrapper


class _TaskCall:
    """A pool task wrapped to record its spans in the worker process."""

    def __init__(self, fn, pool_span: int, spans_dir: str):
        self.fn = fn
        self.pool_span = pool_span
        self.spans_dir = spans_dir
        self.main_pid = os.getpid()

    def __call__(self, *args):
        # a forked worker inherits the main process's wrappers; a spawned one
        # starts without them
        rec = _ACTIVE if _ACTIVE is not None else install(self.spans_dir)
        in_worker = os.getpid() != self.main_pid
        if in_worker:
            rec.clear()  # drop what fork copied or the previous task left
        i = rec.begin(rec.intern("experiments.task"))
        try:
            return self.fn(*args)
        finally:
            rec.finish(i)
            if in_worker:
                path = Path(self.spans_dir) / f"task-{os.getpid()}-{time.monotonic_ns()}.npz"
                rec.dump(path, root_parent=self.pool_span)


def _traced_pool_class(rec: Recorder, spans_dir: str):
    nid = rec.intern("experiments.pool")

    class TracedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._mapping = False
            self._span = rec.begin(nid)
            self._span_open = True

        def _ship(self, fn, items) -> None:
            rec.count("experiments.tasks", len(items))
            rec.count("experiments.task_arg_bytes",
                      sum(len(pickle.dumps((fn, item))) for item in items))

        def submit(self, fn, /, *args, **kwargs):
            if not self._mapping:  # map counts and wraps its own tasks
                self._ship(fn, [(args, kwargs)])
                fn = _TaskCall(fn, self._span, spans_dir)
            return super().submit(fn, *args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            items = list(zip(*iterables))
            self._ship(fn, items)
            columns = list(zip(*items)) or [() for _ in iterables]
            self._mapping = True
            try:
                return super().map(_TaskCall(fn, self._span, spans_dir), *columns, **kwargs)
            finally:
                self._mapping = False

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if self._span_open:
                self._span_open = False
                rec.finish(self._span)
                dur = rec.end[self._span] - rec.start[self._span]
                rec.count("experiments.pool_capacity_s", self._max_workers * dur)

    return TracedPool


def _rebind_everywhere(original, replacement) -> None:
    """Point every ebicglm module attribute bound to ``original`` at
    ``replacement``, so calls through any import of it are traced."""
    for name, module in list(sys.modules.items()):
        if name == "ebicglm" or name.startswith("ebicglm."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _screen_done(rec, out, args):
    rec.count("select.screen.neg_inf", int(np.isneginf(out.statistics).sum()))


def _forward_done(rec, out, args):
    rec.count("select.forward.steps", len(out.steps))


def _csv_read(rec, out, args):
    rec.count("glm.from_csv.bytes", os.path.getsize(args[1]))


# counters read off an entry point's result or arguments
_AFTER = {"select.screen": _screen_done, "select.forward": _forward_done}


def install(spans_dir) -> Recorder:
    """Wrap every traced boundary; returns the active recorder.

    Boundaries that no longer exist are listed in the recorder's
    ``missing`` attribute instead of failing the run.
    """
    global _ACTIVE
    import ebicglm  # noqa: F401  (loads every submodule)
    from ebicglm import errors, experiments, glm, links

    rec = Recorder()
    spans_dir = str(spans_dir)

    for dotted, span in ENTRY_POINTS.items():
        module, attr = dotted.rsplit(".", 1)
        try:
            fn = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            rec.missing.append(dotted)
            continue
        _rebind_everywhere(fn, _spanned(rec, span, fn, _AFTER.get(span)))

    newton = getattr(glm, "_newton", None)
    if newton is None:
        rec.missing.append("ebicglm.glm._newton")
    else:
        _rebind_everywhere(newton, _newton_wrapper(rec, newton, errors.RankDeficient))

    from_csv = glm.Dataset.__dict__.get("from_csv")
    if from_csv is None:
        rec.missing.append("ebicglm.glm.Dataset.from_csv")
    else:
        glm.Dataset.from_csv = classmethod(
            _spanned(rec, "glm.from_csv", from_csv.__func__, _csv_read)
        )

    for cls in vars(links).values():
        if isinstance(cls, type) and issubclass(cls, links.LinkFamily):
            for kernel in KERNELS:
                fn = cls.__dict__.get(kernel)
                if fn is not None:
                    setattr(cls, kernel, _kernel(rec, kernel, fn))

    if getattr(experiments, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
        experiments.ProcessPoolExecutor = _traced_pool_class(rec, spans_dir)
    else:
        rec.missing.append("ebicglm.experiments.ProcessPoolExecutor")
    _ACTIVE = rec
    return rec


# ---------------------------------------------------------------------------
# merging and derivation
# ---------------------------------------------------------------------------

class Trace:
    """Spans of every process of one traced run, with global indices."""

    def __init__(self, parts):
        ids: dict = {}
        cols: dict = {k: [] for k in ("nid", "parent", "start", "end", "fit_span",
                                      "fit_n", "fit_k", "fit_iters", "fit_flags")}
        self.counters: dict = {}
        base = 0
        for part in parts:
            remap = np.array([ids.setdefault(str(nm), len(ids)) for nm in part["names"]],
                             dtype=np.int64)
            cols["nid"].append(remap[part["nid"].astype(np.int64)])
            parent = part["parent"].astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + base, int(part["root_parent"])))
            cols["start"].append(part["start"])
            cols["end"].append(part["end"])
            cols["fit_span"].append(part["fit_span"].astype(np.int64) + base)
            for k in ("fit_n", "fit_k", "fit_iters", "fit_flags"):
                cols[k].append(part[k].astype(np.int64))
            for key, value in zip(part["counter_keys"], part["counter_values"]):
                self.counters[str(key)] = self.counters.get(str(key), 0.0) + float(value)
            base += part["nid"].size
        self.names = list(ids)
        self.files = len(parts) - 1
        for k, v in cols.items():
            setattr(self, k, np.concatenate(v))
        self.dur = self.end - self.start
        valid = self.parent >= 0
        self.self_s = self.dur - np.bincount(
            self.parent[valid], weights=self.dur[valid], minlength=self.dur.size)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.nid == self.names.index(name)

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str), nid=self.nid,
            parent=self.parent, start=self.start, end=self.end,
        )


def _load(path) -> dict:
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


def merge(rec: Recorder, spans_dir) -> Trace:
    """Join the main process's spans with every worker or child file in
    spans_dir."""
    main = Path(spans_dir) / "main.npz"
    rec.dump(main)
    files = sorted(Path(spans_dir).glob("*.npz"))
    return Trace([_load(main)] + [_load(f) for f in files if f != main])


def fit_gflop(n, k, iters, flags) -> np.ndarray:
    """Computed floating-point work per fit, in GFLOP.

    The initial eta is 2nk; each iteration forms the gradient (2nk) and the
    search direction's eta (2nk). Iterations that take a step also form H1
    (nk + 2nk^2), H0 under non-canonical links (the same again) and solve by
    Cholesky (k^3/3 + 2k^2). Elementwise link arithmetic is not counted.
    """
    n, k, iters = (np.asarray(a, dtype=float) for a in (n, k, iters))
    converged = (np.asarray(flags) & CONVERGED) > 0
    canonical = (np.asarray(flags) & CANONICAL) > 0
    steps = np.maximum(iters - converged, 1.0)
    gram = n * k + 2.0 * n * k * k
    hess = gram * np.where(canonical, 1.0, 2.0) + k ** 3 / 3.0 + 2.0 * k * k
    return (2.0 * n * k + iters * 4.0 * n * k + steps * hess) / 1e9


def _descends(trace: Trace, idx: np.ndarray, ancestors: set) -> np.ndarray:
    """Which spans in idx have an ancestor in ``ancestors``."""
    out = np.zeros(idx.size, dtype=bool)
    for j, i in enumerate(idx):
        p = trace.parent[i]
        while p >= 0:
            if p in ancestors:
                out[j] = True
                break
            p = trace.parent[p]
    return out


def layer_metrics(trace: Trace, blas_peak_gflops: float) -> dict:
    """Per-layer counters and times of one traced run (see README.md)."""
    m: dict = {}
    c = trace.counters

    def calls_and_s(prefix, name_mask):
        m[f"{prefix}.calls"] = int(name_mask.sum())
        m[f"{prefix}.s"] = float(trace.dur[name_mask].sum())

    def all_links(kernel):
        out = np.zeros(trace.dur.size, dtype=bool)
        for name in trace.names:
            if name.startswith("links.") and name.endswith("." + kernel):
                out |= trace.mask(name)
        return out

    fit = trace.mask("glm.fit")
    for kernel in KERNELS:
        calls_and_s(f"links.{kernel}", all_links(kernel))
        for link in LINKS:
            calls_and_s(f"links.{link}.{kernel}", trace.mask(f"links.{link}.{kernel}"))

    flags = trace.fit_flags.astype(np.int64)
    done = (flags & RANK_DEFICIENT) == 0
    n_fits = int(flags.size)
    n_done = max(int(done.sum()), 1)
    ll_in_fit = all_links("log_lik") & np.isin(trace.parent, np.nonzero(fit)[0])
    gflop = float(fit_gflop(trace.fit_n, trace.fit_k, trace.fit_iters, flags).sum())
    fit_s = float(trace.dur[fit].sum())
    m.update({
        "glm.fits": n_fits,
        "glm.iters_per_fit": float(trace.fit_iters[done].sum()) / n_done,
        "glm.loglik_evals_per_fit": int(ll_in_fit.sum()) / max(n_fits, 1),
        "glm.converged_ratio": int(((flags & CONVERGED) > 0).sum()) / n_done,
        "glm.fisher_fallbacks": int(((flags & FALLBACK) > 0).sum()),
        "glm.beta_cap_stops": int(((flags & SEPARATED) > 0).sum()),
        "glm.rank_deficient": int((~done).sum()),
        "glm.fit.s": fit_s,
        "glm.fit.self_s": float(trace.self_s[fit].sum()),
        "glm.fit.us_median": float(np.median(trace.dur[fit]) * 1e6) if fit.any() else 0.0,
        "glm.fit.gflop": gflop,
        "glm.fit.gflops": gflop / fit_s if fit_s > 0 else 0.0,
        "glm.blas_peak_gflops": blas_peak_gflops,
    })
    from_csv = trace.mask("glm.from_csv")
    m["glm.from_csv.s"] = float(trace.dur[from_csv].sum())
    m["glm.from_csv.mb"] = c.get("glm.from_csv.bytes", 0.0) / 1e6
    calls_and_s("ebic.score", trace.mask("ebic.score"))

    screen = np.nonzero(trace.mask("select.screen"))[0]
    forward = np.nonzero(trace.mask("select.forward"))[0]
    fit_parent = trace.parent[trace.fit_span] if n_fits else np.zeros(0, np.int64)
    m["select.screen.s"] = float(trace.dur[screen].sum())
    m["select.screen.fits"] = int(np.isin(fit_parent, screen).sum())
    m["select.screen.neg_inf"] = int(c.get("select.screen.neg_inf", 0))
    m["select.forward.s"] = float(trace.dur[forward].sum())
    m["select.forward.steps"] = int(c.get("select.forward.steps", 0))
    m["select.forward.fits"] = int(np.isin(fit_parent, forward).sum())
    m["select.forward.step_s.median"] = _median_step_s(trace, forward, fit_parent)
    m["select.pipeline.self_s"] = float(trace.self_s[trace.mask("select.pipeline")].sum())
    calls_and_s("simgen.generate", trace.mask("simgen.generate"))

    tasks = trace.mask("experiments.task")
    pools = np.nonzero(trace.mask("experiments.pool"))[0]
    capacity = c.get("experiments.pool_capacity_s", 0.0)
    task_s = trace.dur[tasks]
    entries = np.zeros(trace.dur.size, dtype=bool)
    for name in EXPERIMENT_ENTRIES:
        entries |= trace.mask(name)
    entry_idx = np.nonzero(entries)[0]
    outer = entry_idx[~_descends(trace, entry_idx, set(entry_idx.tolist()))]
    inside = _descends(trace, pools, set(outer.tolist()))
    m.update({
        "experiments.tasks": int(c.get("experiments.tasks", 0)),
        "experiments.task_s.median": float(np.median(task_s)) if task_s.size else 0.0,
        "experiments.task_s.max": float(task_s.max()) if task_s.size else 0.0,
        "experiments.pool_efficiency": float(task_s.sum()) / capacity if capacity > 0 else 0.0,
        "experiments.task_arg_mb": c.get("experiments.task_arg_bytes", 0.0) / 1e6,
        "experiments.serial_s": float(trace.dur[outer].sum() - trace.dur[pools[inside]].sum()),
    })
    cli = trace.mask("cli.main")
    m["cli.main.s"] = float(trace.dur[cli].sum())
    m["cli.self_s"] = float(trace.self_s[cli].sum())
    return m


def _median_step_s(trace: Trace, forward: np.ndarray, fit_parent: np.ndarray) -> float:
    """Median forward-step time, from the first to the last fit of the step.

    Each step refits every candidate at one model size, so the fits under a
    forward span group into consecutive runs of equal k; the first run is
    the null model.
    """
    steps = []
    for f in forward:
        rows = np.nonzero(fit_parent == f)[0]
        if rows.size == 0:
            continue
        spans = trace.fit_span[rows]
        order = np.argsort(trace.start[spans], kind="stable")
        spans, ks = spans[order], trace.fit_k[rows][order]
        cut = np.nonzero(np.diff(ks) != 0)[0] + 1
        for group in np.split(np.arange(spans.size), cut)[1:]:
            g = spans[group]
            steps.append(trace.end[g].max() - trace.start[g].min())
    return float(np.median(steps)) if steps else 0.0


def blas_peak_gflops(size: int = 768, repeats: int = 5) -> float:
    """Best-of-repeats dense matmul rate on this process's BLAS threads."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    a @ b  # first call pays BLAS set-up
    best = np.inf
    for _ in range(repeats):
        t = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t)
    return 2.0 * size ** 3 / best / 1e9
