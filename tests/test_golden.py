"""Golden outputs: `ebicglm select` and `ebicglm fit` on a seeded Setting-1
replicate must write exactly the bytes stored under ``tests/data/golden/``.

The expected files pin the whole pipeline (CSV load, screen, forward path,
EBIC read-out, the fit table) to one recorded result, so a change that is
meant to leave every output unchanged can show that it does. To record new
expected files after a deliberate output change, run this file as a script
from the repository root: ``PYTHONPATH=src python tests/test_golden.py``.
"""

import sys
from pathlib import Path

import numpy as np

from ebicglm import cli, design_for, generate_replicate

GOLDEN = Path(__file__).parent / "data" / "golden"
SEED = 7

# the screen runs (p = 493 > 200) and the path mixes presets; the fit uses
# features on and off the true support {10, 20, ...} (1-based)
RUNS = {
    "select": (
        ["select", "--link", "cloglog", "--gamma", "gamma1", "--gamma", "gamma3",
         "--gamma", "paper-final", "--screen-threshold", "200", "--screen-keep", "100",
         "--max-steps", "12"],
        ("path.tsv", "chosen.tsv"),
    ),
    # probit has no dual bound, so neither its screen nor its steps retire a
    # lane: this run pins the unbounded path
    "select-probit": (
        ["select", "--link", "probit", "--gamma", "gamma1", "--gamma", "gamma3",
         "--gamma", "paper-final", "--screen-threshold", "200", "--screen-keep", "100",
         "--max-steps", "12"],
        ("path.tsv", "chosen.tsv"),
    ),
    "fit": (
        ["fit", "--link", "cloglog", "--features", "10,20,30,7", "--gamma", "gamma3"],
        ("fit.tsv",),
    ),
}


def _write_replicate(path: Path) -> None:
    rep = generate_replicate(design_for("S1", 100), seed=SEED)
    data = rep.dataset
    header = ",".join(["y"] + [f"x{j + 1}" for j in range(data.p)])
    body = np.column_stack([data.y, data.X])
    # %.17g round-trips every double, so the CLI reads the replicate exactly
    np.savetxt(path, body, fmt="%.17g", delimiter=",", header=header, comments="")


def _outputs(work: Path) -> dict:
    """Run every command on the replicate; {run/file: bytes}."""
    csv = work / "replicate.csv"
    _write_replicate(csv)
    found = {}
    for name, (argv, files) in RUNS.items():
        out = work / name
        assert cli.main(argv + ["--input", str(csv), "--out", str(out)]) == 0
        for f in files:
            found[f"{name}/{f}"] = (out / f).read_bytes()
    return found


def test_outputs_match_golden_files(tmp_path, capsys):
    found = _outputs(tmp_path)
    capsys.readouterr()
    for key, content in found.items():
        assert content == (GOLDEN / key).read_bytes(), key


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, content in _outputs(Path(tmp)).items():
            target = GOLDEN / key
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)
            print(f"wrote {target}", file=sys.stderr)
