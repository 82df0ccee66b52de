#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one BENCH record.

Run from the root of a source checkout:

    python3 perfbench/record.py --seeds 1-10 --out perfbench/trajectory/BENCH_<commit>.json

For every workload and seed it runs ``run.py`` untraced, then traced for
``--trace-seeds``. The record holds the environment, every value, and per
end-to-end metric the median, the quartiles and the quartile spread as a
share of the median, which it compares against the bound in
BENCHMARK.json. It exits non-zero if any run failed its output checks.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROW = re.compile(r"^(\S+)\s+(-?\d+(?:\.\d+)?)\s+(\S+)\s+(\d+)$")  # name value unit n
QUALITY = ("failed_ratio", "pdr", "fdr")
RAW = ("wall_s", "cpu_s", "calib_s")  # printed beside the scaled times


def _seeds(spec: str) -> list:
    out = []
    for part in filter(None, spec.split(",")):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    table = {m.group(1): float(m.group(2)) for m in map(ROW.match, lines) if m}
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"code": proc.returncode, "env": env, "table": table, "result": result}


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default="1", help="seeds also run traced")
    ap.add_argument("--workloads", default=None, help="comma list; default all")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    record = {"run_seconds": seconds, "env": None, "workloads": {}}
    ok = True
    for w in workloads:
        runs = [run_once(w, s, seconds, 0) for s in _seeds(args.seeds)]
        traced = [run_once(w, s, seconds, 1) for s in _seeds(args.trace_seeds)]
        ok &= all(r["code"] == 0 for r in runs + traced)
        record["env"] = record["env"] or runs[0]["env"]
        entry = {"seeds": _seeds(args.seeds), "end_to_end": {}, "quality": {}, "raw": {},
                 "per_layer": {}, "trace_seeds": _seeds(args.trace_seeds)}
        for name, m in bounds.items():
            values = [r["table"][name] for r in runs if name in r["table"]]
            s = spread(values) if len(values) > 1 else {}
            entry["end_to_end"][name] = {"unit": m["unit"], "values": values, **s}
            flag = "" if not s else ("ok" if s["spread"] < m["bound"] / 3 else "WIDE")
            if s:
                print(f"{w:16s} {name:12s} median {s['median']:10.4f} {m['unit']:3s} "
                      f"n {len(values)} spread {s['spread']:.4f} bound {m['bound']} {flag}")
        for name in RAW:
            values = [r["table"][name] for r in runs if name in r["table"]]
            entry["raw"][name] = {"values": values, **(spread(values) if len(values) > 1 else {})}
            if len(values) > 1:
                print(f"{w:16s} {name:12s} median {entry['raw'][name]['median']:10.4f} s   "
                      f"n {len(values)} spread {entry['raw'][name]['spread']:.4f} (raw)")
        for name in QUALITY:
            values = [r["table"][name] for r in runs if name in r["table"]]
            entry["quality"][name] = values
            if values:
                print(f"{w:16s} {name:12s} median {statistics.median(values):10.4f} ratio "
                      f"n {len(values)}")
        for r in traced:
            for name, v in (r["result"] or {}).get("metrics", {}).items():
                entry["per_layer"].setdefault(name, {"unit": v["unit"], "values": []})
                entry["per_layer"][name]["values"].append(v["value"])
        record["workloads"][w] = entry
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}; all runs passed their checks: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
