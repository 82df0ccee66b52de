#!/usr/bin/env python3
"""The ebicglm benchmark: one workload, seeded inputs, checked outputs.

Run from the root of a source checkout (the package is imported from
``./src``):

    python3 perfbench/run.py --workload s1-batch --seed 1 --seconds 20 --trace 0

Each run sets up its inputs ``SETUP_REPS`` times, three for cli-select
(input generation, CSV write and a toy-size warm-up call), and reports the
median as ``setup_s``.
It then repeats the workload, closed loop and one call at a time, as often
as fits in ``--seconds`` (at least once). ``wall_s`` and ``cpu_s`` are the
median wall and CPU time of the repetitions as measured. On a shared host
the CPUs run the same work up to 1.8x slower in states that change within
seconds, so a speed probe (calib.py) runs beside the workload for the
whole run: ``wall_ref_s`` and ``cpu_ref_s`` are the median over
repetitions of each time divided by the probe's mean kernel time during
that repetition, times ``calib.REFERENCE_S``, i.e. the time the repetition
takes at a fixed reference speed. Only these scaled times are steady enough
to compare across runs. Every repetition must reproduce the first one's
result bytes.

With ``--trace 1`` one untraced repetition runs first, as the reference
for the result bytes and for the tracing overhead, then one traced
repetition gives the per-layer metrics (see tracer.py).

Standard output holds an ``env`` line, a metric table and, last, one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import envinfo  # noqa: E402

envinfo.pin_threads()

import inputs  # noqa: E402
import tracer  # noqa: E402

SETUP_REPS = 5
WORKERS = min(2, os.cpu_count() or 1)
OUT_DIR = ".perfbench_out"


# Sanity floor on the share of the true support found at gamma3 in the
# Setting-1 workloads; the paper's consistency result puts it near 1 at
# n >= 200, so a value below this means selection is broken.
MIN_PDR = 0.5


@dataclass
class Outcome:
    output: bytes  # the result bytes that must repeat exactly
    pdr: float
    fdr: float
    attempted: int
    failed: int
    problems: tuple = ()  # failed checks of the result's own consistency


def _pdr_fdr(selected, truth) -> tuple:
    # scored here, not by ebicglm.pdr_fdr, so the check is independent
    sel, s0 = set(selected), set(truth)
    pdr = len(sel & s0) / len(s0)
    fdr = len(sel - s0) / len(sel) if sel else 0.0
    return pdr, fdr


class S1Batch:
    """run_simulation_batch on Setting 1, rho = 0 (the criteria 5/6 batch)."""

    name = "s1-batch"

    # two replicates, one per worker, keep a repetition near 4 s, so a run
    # holds several and reports their median; the per-replicate work varies
    # by about 3% across seeds
    replicates = 2

    def __init__(self, smoke: bool):
        self.n = 40 if smoke else 200

    def setup(self, seed, work):
        from ebicglm import SelectConfig, design_for, run_simulation_batch

        run_simulation_batch(
            design_for("S1", 30, rho=0.0), replicates=2, seed=seed, threads=WORKERS,
            config=SelectConfig(include_intercept=False, max_steps=2),
        )
        return design_for("S1", self.n, rho=0.0)

    def run(self, design, seed, work, spans_dir=None) -> Outcome:
        from ebicglm import run_simulation_batch

        summary = run_simulation_batch(
            design, replicates=self.replicates, seed=seed, threads=WORKERS
        )
        cell = next(c for c in summary.cells if c.gamma_label == "gamma3")
        problems = []
        if cell.n_reps + cell.n_failed != self.replicates:
            problems.append(f"summary counts {cell.n_reps} + {cell.n_failed} replicates")
        if self.n >= 200 and not cell.mean_pdr >= MIN_PDR:
            problems.append(f"mean pdr at gamma3 is {cell.mean_pdr}")
        return Outcome(summary.to_tsv().encode(), cell.mean_pdr, cell.mean_fdr,
                       self.replicates, summary.n_failed, tuple(problems))


class GolubWorkflow:
    """real_data_workflow on a synthetic Golub-shaped 72 x 7129 dataset."""

    name = "golub-workflow"
    links = ("logit", "cloglog")

    def __init__(self, smoke: bool):
        if smoke:
            self.shape, self.steps, self.folds, self.cv_len = (30, 1100), 3, 2, 2
        else:
            self.shape, self.steps, self.folds, self.cv_len = (72, 7129), 50, 8, 10

    def setup(self, seed, work):
        from ebicglm import Dataset, real_data_workflow

        n, p = self.shape
        gen = inputs.golub_like(seed, n=n, p=p, n_pos=round(n * 25 / 72),
                                n_informative=min(36, p // 20))
        data = Dataset(gen.y, gen.X)
        real_data_workflow(Dataset(gen.y, gen.X[:, :100]), self.links, path_steps=2,
                           cv_folds=2, cv_path_length=2, seed=seed, threads=WORKERS)
        return gen, data

    def run(self, prepared, seed, work, spans_dir=None) -> Outcome:
        from ebicglm import real_data_workflow

        gen, data = prepared
        report = real_data_workflow(
            data, self.links, path_steps=self.steps, cv_folds=self.folds,
            cv_path_length=self.cv_len, seed=seed, threads=WORKERS,
        )
        result = {
            "rankings": {k: [int(j) for j in v] for k, v in report.rankings.items()},
            "cv_criteria": [repr(float(v)) for v in report.cv.criteria],
            "chosen_link": report.chosen_link,
            "finals": [[f.link, list(f.model_indices), repr(float(f.log_lik))]
                       for f in report.finals],
        }
        scores = [_pdr_fdr(f.model_indices, gen.support) for f in report.finals]
        problems = [f"{f.link}: final model is not a prefix of its path"
                    for f in report.finals
                    if set(f.model_indices)
                    != set(report.rankings[f.link][: len(f.model_indices)])]
        if report.chosen_link not in self.links or not all(
                math.isfinite(v) for v in report.cv.criteria):
            problems.append(f"bad CV result {report.cv.criteria} -> {report.chosen_link}")
        attempted = len(self.links) * (1 + self.folds)
        return Outcome(json.dumps(result, sort_keys=True).encode(),
                       statistics.fmean(s[0] for s in scores),
                       statistics.fmean(s[1] for s in scores), attempted, 0,
                       tuple(problems))


class CliSelect:
    """`ebicglm select` on S1 n=500 replicate CSVs, each in its own process."""

    name = "cli-select"
    argv = ("select", "--link", "cloglog", "--gamma", "gamma3", "--gamma", "mbic",
            "--threads", "1")

    # one repetition selects on every dataset in turn: the work of one
    # dataset varies by about 20% between seeds (Newton iterations), and
    # summed over three draws its spread over seeds falls to about a third
    datasets = 3
    setup_reps = 3  # a set-up writes three 12.5 MB CSVs

    def __init__(self, smoke: bool):
        self.n = 60 if smoke else 500
        self.extra = ("--screen-threshold", "100", "--max-steps", "4") if smoke else ()

    def _cli(self, csv, out, extra=(), spans_dir=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path.cwd() / "src")
        if spans_dir is None:
            head = [sys.executable, "-m", "ebicglm.cli"]
        else:
            head = [sys.executable, str(HERE / "cli_child.py"), str(spans_dir)]
        cmd = head + list(self.argv) + ["--input", str(csv), "--out", str(out)] + list(extra)
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        sys.stderr.write(proc.stderr)
        return proc.returncode

    def setup(self, seed, work):
        prepared = []
        for r in range(self.datasets):
            gen = inputs.s1_replicate(seed, n=self.n, replicate=r)
            csv = work / f"replicate{r}.csv"
            inputs.write_csv(csv, gen)
            prepared.append((gen, csv))
        gen = prepared[0][0]
        tiny = inputs.Generated(gen.y[:40], gen.X[:40, :30], ())
        inputs.write_csv(work / "tiny.csv", tiny)
        if self._cli(work / "tiny.csv", work / "warm", ("--max-steps", "2")) != 0:
            raise RuntimeError("warm-up CLI run failed")
        return prepared

    def run(self, prepared, seed, work, spans_dir=None) -> Outcome:
        outputs, scores, problems, failed = [], [], [], 0
        for r, (gen, csv) in enumerate(prepared):
            out = work / f"select{r}"
            shutil.rmtree(out, ignore_errors=True)
            output, score, problem = self._select(gen, csv, out, spans_dir)
            outputs.append(output)
            scores.append(score)
            if problem:
                problems.append(f"dataset {r}: {problem}")
                failed += 1
        return Outcome(b"\0\0".join(outputs), statistics.fmean(s[0] for s in scores),
                       statistics.fmean(s[1] for s in scores), len(prepared), failed,
                       tuple(problems))

    def _select(self, gen, csv, out, spans_dir):
        """(result bytes, (pdr, fdr), failed check or None) of one CLI call."""
        code = self._cli(csv, out, self.extra, spans_dir)
        if code != 0:
            return b"", (0.0, 0.0), f"exit code {code}"
        try:
            path_tsv = (out / "path.tsv").read_bytes()
            chosen_tsv = (out / "chosen.tsv").read_bytes()
            row = next(r.split("\t") for r in chosen_tsv.decode().splitlines()
                       if r.startswith("gamma3\t"))
            selected = [] if row[3] == "-" else [int(j) - 1 for j in row[3].split(",")]
            path = [int(r.split("\t")[1]) - 1 for r in path_tsv.decode().splitlines()[2:]]
        except (OSError, ValueError, IndexError, StopIteration) as exc:
            return b"", (0.0, 0.0), f"unreadable output: {exc!r}"
        pdr, fdr = _pdr_fdr(selected, gen.support)
        problem = None
        if set(selected) != set(path[: len(selected)]):
            problem = "gamma3 model is not a prefix of the path"
        elif self.n >= 200 and pdr < MIN_PDR:
            problem = f"pdr at gamma3 is {pdr}"
        return path_tsv + b"\0" + chosen_tsv, (pdr, fdr), problem


WORKLOADS = {w.name: w for w in (S1Batch, GolubWorkflow, CliSelect)}


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _scaled(times, speed):
    return [t / c * calib.REFERENCE_S for t, c in zip(times, speed)]


def _timed(fn, *args):
    c0, t0 = _cpu_s(), time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0, _cpu_s() - c0


UNITS = (
    # (suffix or exact name, unit), first match wins
    ("glm.fit.us_median", "us"), ("glm.fit.gflops", "GFLOP/s"),
    ("glm.blas_peak_gflops", "GFLOP/s"), ("glm.fit.gflop", "GFLOP"),
    ("_mb", "MB"), (".mb", "MB"), ("_s", "s"), (".s", "s"), ("s.median", "s"),
    ("s.max", "s"), ("_ratio", "ratio"), ("pdr", "ratio"), ("fdr", "ratio"),
    ("pool_efficiency", "ratio"),
)


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def _import_package(root: Path):
    src = root / "src"
    if not (src / "ebicglm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ebicglm package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import ebicglm

    if Path(ebicglm.__file__).resolve().parent != (src / "ebicglm").resolve():
        raise ImportError(f"imported ebicglm from {ebicglm.__file__}, not from {src}")


def _check_reference(out_dir, root, args, output, record_it):
    """Compare the result bytes with those of the first run of the same
    workload, size and seed on the same package and benchmark sources; None
    when they match or when this is that first run."""
    src = hashlib.sha256()
    for f in sorted([*(root / "src").rglob("*.py"), *HERE.glob("*.py")]):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    ref = (out_dir / "reference"
           / f"{args.workload}-{args.size}-seed{args.seed}-{src.hexdigest()[:16]}.sha256")
    digest = hashlib.sha256(output).hexdigest()
    if ref.exists():
        if ref.read_text() != digest:
            return f"result bytes differ from the first run of this seed ({ref.name})"
    elif record_it:
        ref.parent.mkdir(exist_ok=True)
        ref.write_text(digest)
    return None


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke runs every workload at toy size (self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    try:
        _import_package(root)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.size == "smoke")
    out_dir = root / OUT_DIR
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # the probe starts first, while this process is small, so that its
        # peak RSS (which counts the parent's at the spawn) stays below that
        # of the workload's own children
        with calib.SpeedProbe(work / "speed.txt") as probe:
            return _run(args, workload, root, out_dir, work, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, root, out_dir, work, probe) -> int:
    setup_s = []
    for _ in range(getattr(workload, "setup_reps", SETUP_REPS)):
        prepared, wall, _cpu = _timed(workload.setup, args.seed, work)
        setup_s.append(wall)

    outcomes, walls, cpus, windows = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    # start another repetition only if it should end before the deadline
    while not walls or (not args.trace and time.perf_counter() + walls[-1] < deadline):
        start = time.perf_counter()
        outcome, wall, cpu = _timed(workload.run, prepared, args.seed, work)
        outcomes.append(outcome)
        walls.append(wall)
        cpus.append(cpu)
        windows.append((start, time.perf_counter()))
    samples = probe.samples()
    speed = [calib.mean_speed(samples, a, b) for a, b in windows]

    layer = None
    if args.trace:
        spans_dir = work / "spans"
        spans_dir.mkdir()
        blas_peak = tracer.blas_peak_gflops()
        rec = tracer.install(spans_dir)
        outcome, traced_wall, _cpu = _timed(workload.run, prepared, args.seed, work, spans_dir)
        outcomes.append(outcome)
        trace = tracer.merge(rec, spans_dir)
        trace.save(out_dir / f"trace-{args.workload}.npz")
        layer = tracer.layer_metrics(trace, blas_peak)
        layer["trace.overhead_ratio"] = traced_wall / statistics.median(walls)
        for name in rec.missing:
            print(f"note: traced boundary {name} not found; its metrics read 0")
        print(f"note: {trace.files} span files from pool workers or the CLI child merged")

    errors = []
    attempted = sum(o.attempted for o in outcomes)
    failed = 0
    for i, o in enumerate(outcomes):
        bad = o.failed
        if o.output != outcomes[0].output:
            errors.append(f"repetition {i} result bytes differ from repetition 0")
            bad = o.attempted
        if o.problems:
            errors += [f"repetition {i}: {p}" for p in o.problems]
            bad = o.attempted
        failed += bad
    mismatch = _check_reference(out_dir, root, args, outcomes[0].output, not errors)
    if mismatch:
        errors.append(mismatch)
        failed = attempted
    if any(o.pdr != outcomes[0].pdr or o.fdr != outcomes[0].fdr for o in outcomes):
        errors.append("pdr/fdr differ between repetitions")
    if failed:
        errors.append(f"{failed} of {attempted} attempted units failed")

    n = len(walls)
    end_to_end = {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "wall_ref_s": (statistics.median(_scaled(walls, speed)), n),
        "cpu_ref_s": (statistics.median(_scaled(cpus, speed)), n),
        "wall_s": (statistics.median(walls), n),
        "cpu_s": (statistics.median(cpus), n),
        "calib_s": (statistics.median(speed), n),
        "peak_rss_mb": (_peak_rss_mb(), 1),
        "failed_ratio": (failed / attempted, len(outcomes)),
        "pdr": (outcomes[0].pdr, len(outcomes)),
        "fdr": (outcomes[0].fdr, len(outcomes)),
    }
    env = envinfo.collect(root, WORKERS)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"repetitions {n} trace {args.trace}")
    print(f"{'metric':40s} {'value':>16s} {'unit':8s} n")
    for name, (value, count) in end_to_end.items():
        print(f"{name:40s} {value:16.6f} {unit_of(name):8s} {count}")
    if layer is not None:
        for name, value in layer.items():
            print(f"{name:40s} {value:16.6f} {unit_of(name):8s} 1")
    for e in errors:
        print(f"CHECK FAILED: {e}")

    if layer is None:
        declared = ("setup_s", "wall_ref_s", "cpu_ref_s", "peak_rss_mb")
        metrics = {k: end_to_end[k][0] for k in declared}
    else:
        metrics = layer
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the run has failed; report it without a result line
        traceback.print_exc()
        sys.exit(3)
