#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark; takes about a minute.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload at toy size it checks that an untraced run emits every
end-to-end metric, that two traced runs with one seed emit every per-layer
metric with identical work counts, and that the predicted zeros hold. It
also checks that the benchmark fails without a result line when the
package source is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from record import ROW  # noqa: E402

PRINTED = ("setup_s", "wall_ref_s", "cpu_ref_s", "wall_s", "cpu_s", "calib_s", "peak_rss_mb",
           "failed_ratio", "pdr", "fdr")
WORK_COUNTS = ("glm.fits", "glm.iters_per_fit", "glm.loglik_evals_per_fit",
               "select.screen.fits", "select.forward.steps", "experiments.tasks")


def _run(workload, trace, cwd=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    table = {m.group(1): float(m.group(2)) for m in map(ROW.match, lines) if m}
    return proc, table, lines


def _result(proc, lines) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        raise AssertionError(f"bad result line {lines[-1]}")
    return result


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    failures = []
    layers = {}
    for w in (x["name"] for x in spec["workloads"]):
        try:
            proc, table, lines = _run(w, 0)
            result = _result(proc, lines)
            assert sorted(result["metrics"]) == sorted(end_to_end), result["metrics"]
            missing = [k for k in PRINTED if k not in table]
            assert not missing, f"table lacks {missing}"
            runs = []
            for _ in range(2):
                proc, table, lines = _run(w, 1)
                metrics = _result(proc, lines)["metrics"]
                assert sorted(metrics) == sorted(per_layer), sorted(set(per_layer) ^ set(metrics))
                runs.append({k: v["value"] for k, v in metrics.items()})
            for k in WORK_COUNTS:
                assert runs[0][k] == runs[1][k], f"{k} differs: {runs[0][k]} vs {runs[1][k]}"
            layers[w] = runs[0]
            print(f"ok   {w}")
        except AssertionError as exc:
            failures.append(f"{w}: {exc}")
            print(f"FAIL {w}: {exc}")

    if len(layers) == 3:
        zeros = [
            layers["s1-batch"]["select.screen.fits"] == 0,
            layers["cli-select"]["experiments.tasks"] == 0,
            layers["cli-select"]["glm.from_csv.s"] > 0,
            layers["s1-batch"]["glm.from_csv.s"] == 0,
            layers["golub-workflow"]["glm.from_csv.s"] == 0,
            layers["golub-workflow"]["select.screen.fits"] > 0,
        ]
        if not all(zeros):
            failures.append(f"predicted zeros do not hold: {zeros}")
        print("ok   predicted zeros" if all(zeros) else "FAIL predicted zeros")

    bare = Path(".perfbench_out") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc, _table, lines = _run("s1-batch", 0, cwd=bare)
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        failures.append("a checkout without src/ did not fail cleanly")
    print("ok   fails without src/" if proc.returncode else "FAIL runs without src/")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"FAILED: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
