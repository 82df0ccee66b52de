"""End-to-end command-line behavior: exit codes, files, reproducibility."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebicglm import (
    Dataset,
    SelectConfig,
    design_for,
    generate_replicate,
    parse_link_family,
    resolve_gamma,
    run_simulation_batch,
)
from ebicglm import cli as cli_module
from ebicglm import experiments, simgen
from ebicglm.cli import main
from ebicglm.errors import EbicGlmError, InvalidDesign


@pytest.fixture()
def toy_csv(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 6))
    eta = 1.6 * X[:, 1] - 1.3 * X[:, 4]
    y = (rng.random(60) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    path = tmp_path / "toy.csv"
    header = "y," + ",".join(f"g{i}" for i in range(1, 7))
    rows = "\n".join(",".join(str(v) for v in (y[i], *X[i])) for i in range(60))
    path.write_text(header + "\n" + rows + "\n")
    return str(path)


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert main(["select", "--link", "logit"]) == 1  # missing required args
        assert "usage error" in capsys.readouterr().err

    def test_unknown_gamma_is_1(self, toy_csv, tmp_path, capsys):
        rc = main(["select", "--input", toy_csv, "--gamma", "gamma9",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_bad_response_coding_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,g1\n0,1.0\n1,0.5\n2,0.25\n")
        rc = main(["fit", "--input", str(bad), "--link", "logit"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "row 3" in err

    def test_missing_file_is_2(self):
        assert main(["fit", "--input", "/nonexistent.csv", "--link", "logit"]) == 2

    def test_missing_value_is_2(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("y,g1\n1,0.5\n0,\n")
        assert main(["fit", "--input", str(p), "--link", "logit"]) == 2

    @pytest.mark.parametrize("row,message", [
        ("0,abc", "data row 2: column 'g1' holds 'abc', not a number"),
        ("0,", "data row 2: column 'g1' is empty"),
        ("0,0.5,1", "data row 2 has 3 columns, the header 2"),
    ])
    def test_an_unreadable_row_is_named_on_one_line(self, tmp_path, capsys, row, message):
        p = tmp_path / "bad.csv"
        p.write_text(f"y,g1\n1,0.5\n{row}\n1,0.25\n")
        assert main(["fit", "--input", str(p), "--link", "logit"]) == 2
        assert capsys.readouterr().err == f"ebicglm: data error: {p}: {message}\n"

    @pytest.mark.parametrize("kind", ["input", "config"])
    def test_non_utf8_file_is_2(self, kind, toy_csv, tmp_path, capsys):
        bad = tmp_path / "bad"
        if kind == "input":
            # past the first 8 KB as well as in the header, so both the
            # header read and the body parse meet an undecodable byte
            rows = "".join(f"{i % 2},{i}\n" for i in range(2000)).encode()
            bad.write_bytes(b"y,g\xff1\n" + rows + b"0,\xff\n")
            files = ["--input", str(bad)]
        else:
            bad.write_bytes(b'{"link": "\xff"}')
            files = ["--input", toy_csv, "--config", str(bad)]
        for command in ("fit", "select"):
            assert main([command, *files, "--out", str(tmp_path / command)]) == 2
            assert "data error" in capsys.readouterr().err

    def test_byte_order_mark_csv_fits(self, toy_csv, tmp_path, capsys):
        # a UTF-8 byte-order mark, as spreadsheet exports write it, is not
        # part of the first column's name
        bom = tmp_path / "bom.csv"
        with open(toy_csv, "rb") as fh:
            bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
        argv = ["--link", "logit", "--features", "2,5"]
        assert main(["fit", "--input", str(bom), *argv]) == 0
        with_bom = capsys.readouterr().out
        assert main(["fit", "--input", toy_csv, *argv]) == 0
        assert with_bom == capsys.readouterr().out

    @pytest.mark.parametrize("link", ["invpower:0", "invpower:-0"])
    def test_zero_inverse_power_is_usage_error(self, cli_inputs, capsys, link):
        _root, base = cli_inputs
        assert main(base["fit"] + ["--link", link]) == 1
        assert capsys.readouterr().err == (
            "ebicglm: usage error: InversePower exponent must be nonzero\n"
        )

    @pytest.mark.parametrize("exponent", ["nan", "inf", "-inf"])
    def test_non_finite_inverse_power_is_usage_error(self, cli_inputs, capsys, exponent):
        _root, base = cli_inputs
        argv = base["fit"] + ["--link", f"invpower:{exponent}", "--family", "poisson"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "ebicglm: usage error: InversePower exponent must be finite, "
            f"got {float(exponent)}\n"
        )

    @pytest.mark.parametrize("exponent", ["1e-300", "1e-17", "-1e-17"])
    def test_tiny_inverse_power_is_usage_error(self, cli_inputs, capsys, exponent):
        # mu^(-k) rounds to 1.0 at every mean, so no fit could tell two apart
        _root, base = cli_inputs
        argv = base["fit"] + ["--link", f"invpower:{exponent}", "--family", "poisson"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"ebicglm: usage error: InversePower exponent {float(exponent)} is too "
            "close to 0: mu^(-k) cannot tell mu = 1/2 from mu = 2 in double precision\n"
        )

    def test_small_inverse_power_still_fits(self, cli_inputs, capsys):
        _root, base = cli_inputs
        argv = base["fit"] + ["--link", "invpower:1e-6", "--family", "poisson"]
        assert main(argv) == 0
        row = next(r for r in capsys.readouterr().out.splitlines() if r.startswith("log_lik"))
        assert math.isfinite(float(row.split("\t")[1]))

    @pytest.mark.parametrize("seed", range(10))
    def test_small_inverse_power_converges(self, tmp_path, capsys, seed):
        # h' = -1/(k eta) is about 1e6 here, so only a scale-free stop rule
        # can call the fit converged
        rows = np.random.default_rng(seed).integers(0, 2, size=(30, 3))
        csv = tmp_path / "binary.csv"
        csv.write_text("y,a,b\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n")
        argv = ["fit", "--input", str(csv), "--link", "invpower:1e-6", "--family", "poisson",
                "--features", "1,2"]
        assert main(argv) == 0
        assert "converged\tTrue" in capsys.readouterr().out.splitlines()

    def test_response_coding_error_prints_plain_numbers(self, cli_inputs, capsys):
        root, base = cli_inputs
        y = Dataset.from_csv(root / "toy.csv").y
        row = int(np.nonzero(y == 0.0)[0][0]) + 1
        assert main(base["fit"] + ["--family", "gamma", "--link", "log"]) == 2
        assert capsys.readouterr().err == (
            f"ebicglm: data error: Gamma response must be positive; row {row} has y=0.0\n"
        )

    def test_more_folds_than_rows_is_usage_error(self, cli_inputs, capsys):
        _root, base = cli_inputs
        assert main(base["cv-links"] + ["--folds", "25"]) == 1
        assert capsys.readouterr().err == (
            "ebicglm: usage error: cannot split n=24 rows into 25 folds\n"
        )

    @pytest.mark.parametrize("command", ["fit", "select"])
    @pytest.mark.parametrize("gamma", ["nan", "inf", "-1"])
    def test_gamma_outside_ebic_domain_is_usage_error(self, cli_inputs, capsys,
                                                      command, gamma):
        # EBIC is defined for a finite gamma >= 0 only
        _root, base = cli_inputs
        assert main(base[command] + [f"--gamma={gamma}"]) == 1
        assert capsys.readouterr().err == (
            f"ebicglm: usage error: gamma must be finite and >= 0, got {float(gamma)}\n"
        )

    def test_simulation_size_limits_are_usage_errors(self, cli_inputs, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("no replicate may start")

        monkeypatch.setattr(experiments, "_map_tasks", no_pool)
        _root, base = cli_inputs
        limit = experiments.MAX_REPLICATES
        assert main(base["simulate"] + ["--reps", str(limit + 1)]) == 1
        assert f"replicates must be <= {limit}" in capsys.readouterr().err
        assert main(base["simulate"] + ["--n", "5825"]) == 1
        assert "cells exceeds the limit" in capsys.readouterr().err

    def test_covariates_whose_squares_overflow_are_numerical_failures(self, tmp_path):
        # |x| near 1e300: the products of the shared columns overflow. Run as
        # a user would, with every RuntimeWarning an error, in a new process
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 4)) * 1e300
        rows = [",".join(repr(float(v)) for v in (i % 2, *X[i])) for i in range(12)]
        csv = tmp_path / "huge.csv"
        csv.write_text("y,a,b,c,d\n" + "\n".join(rows) + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cli_module.__file__).parent.parent))
        for command in (["fit", "--features", "1,2"], ["select", "--out", str(tmp_path / "o")]):
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", "ebicglm.cli",
                 *command, "--link", "logit", "--input", str(csv)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert proc.returncode == 3, proc.stderr
            assert len(proc.stderr.splitlines()) == 1, proc.stderr
            assert proc.stderr.startswith("ebicglm: numerical failure:")


class TestOneCovariate:
    """A CSV with one covariate column: the EBIC presets that are defined
    through ln p are refused as data errors that name the file's p."""

    @pytest.fixture()
    def one_column_csv(self, tmp_path):
        csv = tmp_path / "one.csv"
        csv.write_text("y,g1\n0,0.3\n1,1.2\n0,-0.4\n1,0.9\n0,0.1\n1,2.0\n")
        return str(csv)

    # select's defaults: gamma2 is the first of them that needs p
    @pytest.mark.parametrize("command,preset", [("select", "gamma2"), ("fit", "gamma3")])
    def test_presets_that_need_p_above_1_are_data_errors(self, one_column_csv, tmp_path,
                                                          capsys, command, preset):
        argv = ["select", "--out", str(tmp_path / "sel")] if command == "select" else [
            "fit", "--gamma", preset]
        assert main([*argv, "--input", one_column_csv]) == 2
        assert capsys.readouterr().err == (
            f"ebicglm: data error: gamma preset '{preset}' is defined through ln n / ln p, "
            "so it needs n > 1 rows and p > 1 covariates; the data have n=6, p=1\n"
        )

    def test_cv_links_is_refused_before_any_fold_runs(self, one_column_csv, tmp_path,
                                                      monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("no fold may start")

        monkeypatch.setattr(experiments, "_map_tasks", no_pool)
        out = tmp_path / "cv"
        assert main(["cv-links", "--input", one_column_csv, "--folds", "2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "ebicglm: data error: cross-validating links needs at least 2 covariates, got p=1\n"
        )
        assert not out.exists()

    def test_bic_needs_no_p(self, one_column_csv, capsys):
        assert main(["fit", "--input", one_column_csv, "--gamma", "bic"]) == 0
        assert capsys.readouterr().out.splitlines()[2].startswith("g1\t")


class TestFit:
    def test_prints_coefficients_and_ebic(self, toy_csv, capsys):
        rc = main(["fit", "--input", toy_csv, "--link", "logit",
                   "--features", "2,5", "--gamma", "bic"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(intercept)" in out and "g2" in out and "g5" in out
        assert "log_lik" in out and "ebic" in out

    def test_features_required_when_p_large(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 30))
        y = (rng.random(10) < 0.5).astype(float)
        p = tmp_path / "wide.csv"
        hdr = "y," + ",".join(f"v{i}" for i in range(30))
        p.write_text(hdr + "\n" + "\n".join(
            ",".join(str(v) for v in (y[i], *X[i])) for i in range(10)) + "\n")
        assert main(["fit", "--input", str(p), "--link", "logit"]) == 1

    def test_without_features_fits_every_covariate(self, toy_csv, capsys):
        assert main(["fit", "--input", toy_csv, "--link", "logit"]) == 0
        every = capsys.readouterr().out
        terms = [line.split("\t")[0] for line in every.splitlines()[1:8]]
        assert terms == ["(intercept)", "g1", "g2", "g3", "g4", "g5", "g6"]
        assert main(["fit", "--input", toy_csv, "--link", "logit",
                     "--features", "1,2,3,4,5,6"]) == 0
        assert capsys.readouterr().out == every

    @pytest.mark.parametrize("features,message", [
        ("2,2", "--features names a column twice: '2,2'"),
        ("0", "--features column 0 is not in 1..6"),
        ("99", "--features column 99 is not in 1..6"),
        ("", "--features must be comma-separated column numbers, got ''"),
        (" ", "--features must be comma-separated column numbers, got ' '"),
    ])
    def test_features_checked_in_one_based_terms(self, toy_csv, capsys, features, message):
        assert main(["fit", "--input", toy_csv, "--features", features]) == 1
        assert capsys.readouterr().err == f"ebicglm: usage error: {message}\n"


class TestSelect:
    def test_writes_path_chosen_manifest(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["select", "--input", toy_csv, "--link", "cloglog",
                   "--gamma", "gamma3", "--out", str(out)])
        assert rc == 0
        path_tsv = (out / "path.tsv").read_text()
        chosen_tsv = (out / "chosen.tsv").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert path_tsv.startswith("step\tfeature\tname\tlog_lik\tebic_gamma3")
        assert chosen_tsv.splitlines()[0].startswith("gamma_spec")
        assert manifest["command"] == "select"
        assert manifest["params"]["link"] == "cloglog"
        # why the path ended is an outcome, beside the params --config reads
        assert manifest["stop_reason"] in ("max-steps", "size-limit", "no-candidates",
                                           "no-usable-fit", "ebic-decided")
        assert "stop_reason" not in manifest["params"]
        # strongest signals are columns 2 and 5 (1-based)
        chosen_row = chosen_tsv.splitlines()[1].split("\t")
        assert chosen_row[3] == "2,5"

    def test_path_ending_at_n_minus_2_reports_size_limit(self, tmp_path):
        # three rows allow one covariate, and the path takes it
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 4))
        csv = tmp_path / "three.csv"
        csv.write_text("y,a,b,c,d\n" + "\n".join(
            ",".join(str(v) for v in (y, *x)) for y, x in zip((1, 0, 1), X)) + "\n")
        out = tmp_path / "run"
        assert main(["select", "--input", str(csv), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stop_reason"] == "size-limit"
        assert len((out / "path.tsv").read_text().splitlines()) == 3  # header, null, step 1

    def test_select_rerun_is_identical(self, toy_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["select", "--input", toy_csv, "--link", "logit", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        assert (out1 / "path.tsv").read_bytes() == (out2 / "path.tsv").read_bytes()
        assert (out1 / "chosen.tsv").read_bytes() == (out2 / "chosen.tsv").read_bytes()


class TestSimulate:
    def test_byte_identical_reruns_and_manifest_roundtrip(self, tmp_path):
        base = ["simulate", "--setting", "1", "--n", "30", "--reps", "2",
                "--seed", "7"]
        out1, out2, out3 = (tmp_path / d for d in ("s1", "s2", "s3"))
        assert main(base + ["--out", str(out1), "--threads", "2"]) == 0
        assert main(base + ["--out", str(out2), "--threads", "1"]) == 0
        assert (out1 / "summary.tsv").read_bytes() == (out2 / "summary.tsv").read_bytes()
        assert (out1 / "replicates.tsv").read_bytes() == (out2 / "replicates.tsv").read_bytes()
        # re-run from the manifest alone
        rc = main(["simulate", "--n", "1", "--config", str(out1 / "manifest.json"),
                   "--out", str(out3), "--threads", "1"])
        assert rc == 0
        assert (out1 / "summary.tsv").read_bytes() == (out3 / "summary.tsv").read_bytes()

    def test_gamma_flags_set_the_replication_gammas(self, tmp_path):
        out = tmp_path / "g"
        assert main(["simulate", "--setting", "1", "--n", "30", "--reps", "2", "--seed", "3",
                     "--gamma", "gamma3", "--gamma", "0.5", "--threads", "1",
                     "--out", str(out)]) == 0
        # the simulated model has no intercept, so neither do the fits
        config = SelectConfig(gammas=("gamma3", "0.5"), include_intercept=False)
        want = run_simulation_batch(design_for("1", 30), 2, config=config, seed=3)
        assert (out / "summary.tsv").read_text() == want.to_tsv()
        labels = [line.split("\t")[1]
                  for line in (out / "replicates.tsv").read_text().splitlines()[1:]]
        assert labels == ["gamma3", "0.5"] * 2

    def test_dump_data_writes_csv_and_design(self, tmp_path):
        out = tmp_path / "dump"
        rc = main(["simulate", "--setting", "1", "--n", "30", "--reps", "1",
                   "--seed", "3", "--dump-data", "1", "--out", str(out)])
        assert rc == 0
        assert (out / "design.json").exists()
        data = Dataset.from_csv(out / "replicate_0.csv")
        design = json.loads((out / "design.json").read_text())
        assert data.p == design["pn"]
        assert data.n == 30

    def test_dumped_replicates_reload_bit_for_bit(self, tmp_path):
        out = tmp_path / "dump"
        assert main(["simulate", "--setting", "1", "--n", "30", "--reps", "2",
                     "--seed", "3", "--dump-data", "2", "--threads", "1",
                     "--out", str(out)]) == 0
        for rid in range(2):
            dumped = Dataset.from_csv(out / f"replicate_{rid}.csv")
            batch = generate_replicate(design_for("1", 30), 3, rid).dataset
            assert dumped.y.tobytes() == batch.y.tobytes()
            assert dumped.X.tobytes() == batch.X.tobytes()


class TestCvLinks:
    def test_report_and_manifest(self, toy_csv, tmp_path, capsys):
        out = tmp_path / "cv"
        rc = main(["cv-links", "--input", toy_csv, "--links", "logit,cloglog",
                   "--folds", "4", "--path-length", "2", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        table = (out / "cv_links.tsv").read_text()
        lines = table.strip().splitlines()
        assert lines[0] == "link\theld_out_log_lik\tchosen"
        assert len(lines) == 3
        assert sum(1 for ln in lines[1:] if ln.endswith("*")) == 1

    @pytest.mark.parametrize("links,message", [
        ("logit,cloglog,logit", "link logit given more than once"),
        (",", "need at least one link"),
    ])
    def test_bad_link_lists_are_usage_errors(self, toy_csv, tmp_path, capsys, links, message):
        out = tmp_path / "cv"
        assert main(["cv-links", "--input", toy_csv, "--links", links, "--folds", "4",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ebicglm: usage error") and message in err
        assert not out.exists()


class TestDiagnose:
    def test_ratio_table(self, toy_csv, tmp_path, capsys):
        beta = tmp_path / "beta.txt"
        beta.write_text("\n".join(["0.0", "1.6", "0.0", "0.0", "-1.3", "0.0"]) + "\n")
        rc = main(["diagnose", "--input", toy_csv, "--link", "cloglog",
                   "--beta", str(beta)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "first_ratio" in out and "n_threshold" in out

    def test_canonical_second_ratio_na(self, toy_csv, tmp_path, capsys):
        beta = tmp_path / "beta.txt"
        beta.write_text("\n".join(["0.1"] * 6) + "\n")
        rc = main(["diagnose", "--input", toy_csv, "--link", "logit",
                   "--beta", str(beta)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "second_ratio\tNA" in out

    def test_non_finite_beta_is_usage_error(self, toy_csv, tmp_path, capsys):
        beta = tmp_path / "beta.txt"
        beta.write_text("\n".join(["nan"] + ["0.0"] * 5) + "\n")
        rc = main(["diagnose", "--input", toy_csv, "--link", "logit",
                   "--beta", str(beta)])
        assert rc == 1
        assert "beta0 must be a finite vector" in capsys.readouterr().err

    @pytest.mark.parametrize("contents", [None, "0.1\nabc\n"])
    def test_unreadable_beta_is_data_error(self, toy_csv, tmp_path, capsys, contents):
        beta = tmp_path / "beta.txt"
        if contents is not None:
            beta.write_text(contents)
        rc = main(["diagnose", "--input", toy_csv, "--link", "logit", "--beta", str(beta)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ebicglm: data error: cannot read coefficient file {beta}: ")
        assert len(err.splitlines()) == 1

    def test_no_positive_information_is_na(self, toy_csv, tmp_path, capsys):
        # eta overflows to +-inf on every row, where sigma^2 = 0: no column
        # has positive information (and a NumPy RuntimeWarning on the way
        # fails the suite, see pyproject.toml)
        beta = tmp_path / "beta.txt"
        beta.write_text("\n".join(["1e308"] * 2 + ["0.0"] * 4) + "\n")
        rc = main(["diagnose", "--input", toy_csv, "--link", "logit",
                   "--beta", str(beta)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "first_ratio\tNA" in out and "first_below_threshold\tNA" in out


def test_leukemia_shape_csv_loads_quickly(tmp_path):
    """A 72 x 7129 covariate CSV must parse in well under five seconds."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((72, 7129)).astype(np.float32)
    y = (rng.random(72) < 0.5).astype(int)
    path = tmp_path / "leukemia_shape.csv"
    with open(path, "w") as fh:
        fh.write("y," + ",".join(f"gene{j}" for j in range(1, 7130)) + "\n")
        for i in range(72):
            fh.write(str(y[i]) + "," + ",".join(f"{v:.5f}" for v in X[i]) + "\n")
    t0 = time.time()
    data = Dataset.from_csv(path)
    elapsed = time.time() - t0
    assert data.n == 72 and data.p == 7129
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# --config values are checked against the flags they stand for
# ---------------------------------------------------------------------------

class TestConfigValues:
    @pytest.mark.parametrize("argv,params", [
        (["simulate", "--n", "50"], {"params": {"n": "abc"}}),
        (["select"], {"max_steps": "abc"}),
        (["select"], {"gamma": 5}),
        (["select"], {"screen_keep": "x"}),
        (["select"], {"no_intercept": "yes"}),
        (["select"], {"input": None}),
        (["select"], {"func": 1}),
        (["simulate", "--n", "50"], {"setting": "4"}),
        (["simulate", "--n", "50"], {"reps": 2.5}),
        (["select"], [1, 2]),
    ])
    def test_bad_value_is_usage_error(self, toy_csv, tmp_path, capsys, argv, params):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(params))
        if argv[0] == "select":
            argv = argv + ["--input", toy_csv]
        rc = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_typed_values_and_flag_strings_accepted(self, toy_csv, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"max_steps": "2", "gamma": ["bic", "0.5"],
                                   "no_intercept": False}))
        out = tmp_path / "o"
        assert main(["select", "--input", toy_csv, "--config", str(cfg),
                     "--out", str(out)]) == 0
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert params["max_steps"] == 2 and params["gamma"] == ["bic", "0.5"]

    def test_json_integer_for_float_flag_is_recorded_as_float(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"rho": 0}))
        out = tmp_path / "o"
        assert main(["simulate", "--n", "12", "--reps", "1", "--threads", "1",
                     "--config", str(cfg), "--out", str(out)]) == 0
        params = json.loads((out / "manifest.json").read_text())["params"]
        assert params["rho"] == 0.0 and isinstance(params["rho"], float)

    def test_bad_features_flag_is_usage_error(self, toy_csv):
        assert main(["fit", "--input", toy_csv, "--features", "a,b"]) == 1

    def test_empty_features_key_is_usage_error(self, toy_csv, tmp_path, capsys):
        # an empty list of columns names none; it does not mean every column
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"features": ""}))
        assert main(["fit", "--input", toy_csv, "--config", str(cfg)]) == 1
        assert "--features must be comma-separated column numbers" in capsys.readouterr().err

    def test_old_path_per_gamma_key_is_usage_error(self, toy_csv, tmp_path, capsys):
        # the option is gone; a manifest written before still carries its key
        cfg = tmp_path / "manifest.json"
        cfg.write_text(json.dumps({"command": "select",
                                   "params": {"path_per_gamma": False}}))
        rc = main(["select", "--input", toy_csv, "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "unknown config key 'path_per_gamma'" in capsys.readouterr().err

    def test_removed_k_multiplier_is_usage_error(self, toy_csv, tmp_path, capsys):
        # the growth cap is a constant now; neither the flag nor an old
        # manifest's key is accepted
        out = str(tmp_path / "o")
        argv = ["select", "--input", toy_csv, "--out", out]
        assert main(argv + ["--k-multiplier", "1"]) == 1
        assert "usage error" in capsys.readouterr().err
        cfg = tmp_path / "manifest.json"
        cfg.write_text(json.dumps({"command": "select", "params": {"k_multiplier": 1.6}}))
        assert main(argv + ["--config", str(cfg)]) == 1
        assert "unknown config key 'k_multiplier'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# numeric flags below their bound are usage errors, not clamped
# ---------------------------------------------------------------------------

_OUT_OF_RANGE = [
    ("select", "max_steps", -4),
    ("select", "max_steps", 0),
    ("select", "screen_threshold", 0),
    ("select", "screen_keep", 0),
    ("select", "threads", 0),
    ("cv-links", "path_length", 0),
    ("simulate", "threads", -1),
    ("simulate", "dump_data", -1),
]


class TestFlagRanges:
    @pytest.mark.parametrize("command,dest,value", _OUT_OF_RANGE)
    def test_flag_below_bound_is_usage_error(self, cli_inputs, capsys, command, dest, value):
        _root, base = cli_inputs
        flag = "--" + dest.replace("_", "-")
        assert main(base[command] + [flag, str(value)]) == 1
        assert f"{flag} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command,dest,value", [
        c for c in _OUT_OF_RANGE if c[1] != "threads"
    ])
    def test_config_value_below_bound_is_usage_error(self, cli_inputs, capsys,
                                                     command, dest, value):
        root, base = cli_inputs
        cfg = root / f"range-{command}-{dest}.json"
        cfg.write_text(json.dumps({"params": {dest: value}}))
        assert main(base[command] + ["--config", str(cfg)]) == 1
        assert "must be" in capsys.readouterr().err

    def test_values_at_the_bound_run(self, cli_inputs):
        _root, base = cli_inputs
        assert main(base["select"] + ["--max-steps", "1", "--screen-keep", "1"]) == 0
        assert main(base["simulate"] + ["--threads", "1", "--dump-data", "0"]) == 0

    @pytest.mark.parametrize("rho", ["2", "1", "-0.5", "nan"])
    def test_bad_rho_is_usage_error(self, cli_inputs, capsys, rho):
        _root, base = cli_inputs
        assert main(base["simulate"] + ["--rho", rho]) == 1
        assert "usage error: rho must be in [0, 1)" in capsys.readouterr().err

    def test_setting_3_with_a_rho_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s3"
        assert main(["simulate", "--setting", "3", "--n", "30", "--reps", "1",
                     "--rho", "0.5", "--out", str(out)]) == 1
        assert "usage error: setting 3 has no rho" in capsys.readouterr().err
        assert not out.exists()

    def test_inconsistent_design_is_usage_error(self, cli_inputs, monkeypatch, capsys):
        # no flag value breaks the block layout, so the design builder is
        # made to raise it; simulate imports it from simgen as it runs
        def inconsistent(*args, **kwargs):
            raise InvalidDesign("block layout needs q < pn/3")

        monkeypatch.setattr(simgen, "design_for", inconsistent)
        _root, base = cli_inputs
        assert main(base["simulate"]) == 1
        assert "usage error: block layout" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# manifests: their params are the command's config keys, and replay the run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["fit", "select", "simulate", "cv-links", "diagnose"])
def test_manifest_params_are_the_config_keys(cli_inputs, command):
    root, base = cli_inputs
    out = root / f"keys-{command}"
    assert main(base[command] + ["--out", str(out)]) == 0
    params = json.loads((out / "manifest.json").read_text())["params"]
    assert sorted(params) == sorted(d for c, d in _config_keys() if c == command)


def test_manifest_records_the_blas_thread_variables(toy_csv, tmp_path):
    # a new process, as a user starts it: one variable unset, so that
    # import ebicglm pins it, and one set by the caller
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=str(Path(cli_module.__file__).parent.parent), OMP_NUM_THREADS="3")
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "ebicglm.cli", "fit", "--input", toy_csv,
         "--features", "2,5", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blas_threads"] == {
        "OPENBLAS_NUM_THREADS": {"value": "1", "set_by_ebicglm": True},
        "OMP_NUM_THREADS": {"value": "3", "set_by_ebicglm": False},
    }
    assert "blas_threads" not in manifest["params"]


# each replay's own flags differ from the recorded run's, so only the
# manifest can make the outputs equal
_REPLAY_FLAGS = {
    "fit": ["--input", "missing.csv", "--link", "probit"],
    "select": ["--input", "missing.csv", "--link", "probit", "--max-steps", "1"],
    "cv-links": ["--input", "missing.csv", "--threads", "1"],
    "diagnose": ["--input", "missing.csv", "--beta", "missing.txt", "--link", "logit"],
}


@pytest.mark.parametrize("command", sorted(_REPLAY_FLAGS))
def test_rerun_from_manifest_is_byte_identical(cli_inputs, command):
    root, base = cli_inputs
    first, again = root / f"replay-{command}-1", root / f"replay-{command}-2"
    assert main(base[command] + ["--out", str(first)]) == 0
    argv = [command, *_REPLAY_FLAGS[command], "--config", str(first / "manifest.json")]
    assert main(argv + ["--out", str(again)]) == 0
    names = sorted(f.name for f in first.iterdir())
    assert names == sorted(f.name for f in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_manifest_replays_from_another_directory(cli_inputs, tmp_path, monkeypatch):
    # --input and --beta given relative to one directory, replayed from another
    root, _base = cli_inputs
    work = tmp_path / "work"
    work.mkdir()
    for name in ("toy.csv", "beta.txt"):
        (work / name).write_bytes((root / name).read_bytes())
    runs = {
        "fit": ["fit", "--input", "toy.csv", "--features", "1,2"],
        "diagnose": ["diagnose", "--input", "toy.csv", "--beta", "beta.txt"],
    }
    monkeypatch.chdir(work)
    for command, argv in runs.items():
        assert main(argv + ["--out", f"{command}-1"]) == 0
    monkeypatch.chdir(tmp_path)
    for command in runs:
        first, again = work / f"{command}-1", tmp_path / f"{command}-2"
        params = json.loads((first / "manifest.json").read_text())["params"]
        assert all(os.path.isabs(params[k]) for k in ("input", "beta") if k in params)
        argv = [command, *_REPLAY_FLAGS[command], "--config", str(first / "manifest.json")]
        assert main(argv + ["--out", str(again)]) == 0
        for f in first.iterdir():
            assert f.read_bytes() == (again / f.name).read_bytes(), f.name


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cfg")
    rng = np.random.default_rng(3)
    X = rng.standard_normal((24, 4))
    y = (rng.random(24) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(int)
    csv = root / "toy.csv"
    csv.write_text("y,a,b,c,d\n" + "\n".join(
        ",".join(str(v) for v in (y[i], *X[i])) for i in range(24)) + "\n")
    beta = root / "beta.txt"
    beta.write_text("0.5\n0\n0\n0\n")
    out = str(root / "out")
    base = {
        "fit": ["fit", "--input", str(csv), "--features", "1,2"],
        "select": ["select", "--input", str(csv), "--max-steps", "2", "--out", out],
        "simulate": ["simulate", "--n", "12", "--reps", "1", "--threads", "1",
                     "--out", out],
        "cv-links": ["cv-links", "--input", str(csv), "--links", "logit,cloglog",
                     "--folds", "2", "--path-length", "1", "--threads", "1",
                     "--out", out],
        "diagnose": ["diagnose", "--input", str(csv), "--beta", str(beta)],
    }
    return root, base


def _config_keys():
    from ebicglm.cli import _RUN_ONLY_KEYS, _build_parser

    keys = []
    for command, sub in sorted(_build_parser().commands.items()):
        for action in sub._actions:
            if action.dest != "help" and action.dest not in _RUN_ONLY_KEYS:
                keys.append((command, action.dest))
    return keys


# small numbers keep every run that passes the check cheap (n, reps, folds);
# json writes and reads NaN and Infinity, so a config file can hold them
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12)
    | st.floats(-2.0, 2.0) | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=120, deadline=None)
@given(key=st.sampled_from(_config_keys()), value=_JSON_VALUES)
def test_any_config_value_gives_an_exit_code(cli_inputs, key, value):
    root, base = cli_inputs
    command, dest = key
    cfg = root / "c.json"
    cfg.write_text(json.dumps({"params": {dest: value}}))
    rc = main(base[command] + ["--config", str(cfg)])
    assert rc in (0, 1, 2, 3)


# link names, and inverse powers with any float text (0, -0, nan, inf among them)
_LINK_TEXT = (
    st.sampled_from(["logit", "probit", "cauchit", "cloglog", "log", "identity",
                     "arcsin", "invpower"])
    | st.builds("invpower:{}".format, st.sampled_from(["0", "-0", "nan", "inf", "-inf", "x"])
                | st.floats().map(repr))
)
_GAMMA_TEXT = (
    st.sampled_from(["nan", "inf", "-inf", "-1", "1e400", "0.5", "bic"]) | st.text(max_size=6)
)


@settings(max_examples=150, deadline=None)
@given(link=_LINK_TEXT, family=st.sampled_from([None, "poisson", "bernoulli"]),
       gamma=_GAMMA_TEXT)
def test_any_link_and_gamma_text_gives_an_exit_code(cli_inputs, link, family, gamma):
    _root, base = cli_inputs
    argv = base["fit"] + [f"--link={link}", f"--gamma={gamma}"]
    if family:
        argv.append(f"--family={family}")
    rc = main(argv)
    assert rc in (0, 1, 2, 3)
    try:
        parse_link_family(link, family)
        resolve_gamma(gamma, 24, 4)
    except EbicGlmError:
        # refused while the flags are read (or the data before them): a
        # usage or data error, never a numerical failure
        assert rc in (1, 2)


# ---------------------------------------------------------------------------
# the exit-code contract over CSV contents: extreme magnitudes, degenerate
# columns, tiny n and responses at the edge of their family's domain
# ---------------------------------------------------------------------------

_MAGNITUDES = st.sampled_from([1e-300, 1e-200, 1e-5, 1.0, 1e5, 1e200, 1e300])
_FAMILY_LINKS = {
    "bernoulli": ["logit", "probit", "cauchit", "cloglog", "identity", "arcsin"],
    "poisson": ["log", "invpower:-2"],
    "gamma": ["log", "invpower:1", "invpower:2", "invpower:-2"],
}


@st.composite
def _edge_responses(draw, family, n, rng):
    if family == "bernoulli":
        # all 0, all 1 or mixed, perhaps with one row flipped
        y = (rng.random(n) < draw(st.sampled_from([0.0, 1.0, 0.5]))).astype(float)
        if draw(st.booleans()):
            i = draw(st.integers(0, n - 1))
            y[i] = 1.0 - y[i]
        return y
    if family == "poisson":
        # all zero counts, or counts up to a drawn top (1e15 among them)
        top = draw(st.sampled_from([0.0, 1.0, 3.0, 1e15]))
        return np.floor(top * rng.random(n) + 0.5)
    return draw(_MAGNITUDES) * np.exp(rng.standard_normal(n))  # positive


@st.composite
def _edge_csvs(draw):
    """(CSV text, family, p) of a small dataset."""
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    columns = []
    for j in range(p):
        kinds = ["scaled", "scaled", "constant", "zero"] + (["duplicate"] if j else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "scaled":
            col = draw(_MAGNITUDES) * rng.standard_normal(n)
        elif kind == "duplicate":
            col = columns[draw(st.integers(0, j - 1))]
        elif kind == "constant":
            col = np.full(n, draw(_MAGNITUDES) * draw(st.sampled_from([1.0, -1.0])))
        else:
            col = np.zeros(n)
        columns.append(col)
    family = draw(st.sampled_from(sorted(_FAMILY_LINKS)))
    y = draw(_edge_responses(family, n, rng))
    rows = [",".join(repr(float(v)) for v in (y[i], *(c[i] for c in columns)))
            for i in range(n)]
    header = "y," + ",".join(f"x{j + 1}" for j in range(p))
    return header + "\n" + "\n".join(rows) + "\n", family, p


@pytest.fixture(scope="module")
def edge_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("edge")


def _every_command(csv, beta_file, out, link, family, features):
    """fit, select, cv-links and diagnose on one CSV file."""
    model = ["--input", str(csv), "--link", link, "--family", family]
    return [
        ["fit", *model, "--features", features],
        ["select", *model, "--max-steps", "3", "--out", str(out)],
        ["cv-links", "--input", str(csv), "--folds", "2", "--path-length", "2",
         "--threads", "1", "--out", str(out)],
        ["diagnose", *model, "--beta", str(beta_file)],
    ]


def _run_quietly(argv):
    """``main(argv)``'s exit code and stderr lines; no warning escapes it."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        # a warning would reach a command-line user's stderr
        warnings.simplefilter("always")
        rc = main(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    return rc, err.getvalue().splitlines()


@settings(max_examples=150, deadline=None)
@given(case=_edge_csvs(), data=st.data())
def test_any_csv_contents_give_an_exit_code_and_one_stderr_line(edge_dir, case, data):
    text, family, p = case
    link = data.draw(st.sampled_from(_FAMILY_LINKS[family]))
    features = data.draw(st.sampled_from(["1", "1,2"] if p > 1 else ["1"]))
    beta = data.draw(st.lists(st.sampled_from([0.0, 0.5, -2.0, 1e3]), min_size=p, max_size=p))
    csv, beta_file, out = edge_dir / "edge.csv", edge_dir / "beta.txt", edge_dir / "out"
    csv.write_text(text)
    beta_file.write_text("".join(f"{b!r}\n" for b in beta))
    for argv in _every_command(csv, beta_file, out, link, family, features):
        rc, lines = _run_quietly(argv)
        assert rc in (0, 1, 2, 3), argv
        assert len(lines) <= 1, (argv, lines)


@pytest.mark.parametrize("body,message", [
    (b"y,a\n", "no data rows"),
    (b"", "empty file"),
    (b"y,a,b\n1,2\n0,3\n", "header has 3 columns, rows have 2"),
    (b"y,a\n1,0.5\n0,\xff\n", "not UTF-8 text"),
], ids=["header-only", "empty", "rows-one-cell-short", "non-utf8-body"])
def test_an_unreadable_csv_file_gives_exit_code_2_and_one_stderr_line(edge_dir, body, message):
    csv, beta_file, out = edge_dir / "fixed.csv", edge_dir / "fixed-beta.txt", edge_dir / "out"
    csv.write_bytes(body)
    beta_file.write_text("0.5\n")
    for argv in _every_command(csv, beta_file, out, "logit", "bernoulli", "1"):
        rc, lines = _run_quietly(argv)
        assert rc == 2 and len(lines) == 1 and message in lines[0], (argv, lines)
