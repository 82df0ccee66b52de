"""What a fresh ebicglm process loads: SciPy only once a probit link is
built, nothing new in pool workers, one BLAS thread unless the caller set
one, and glibc heap thresholds, raised by a block the import frees, that
keep a lane block's arrays in the heap unless the caller tuned malloc.

Each test runs its script in a new interpreter, since this test process has
long since imported SciPy and numpy.
"""

import ctypes
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ebicglm
from helpers import ALL_PAIRS

SRC = str(Path(ebicglm.__file__).resolve().parent.parent)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _run(script, cwd, env_update=None, unset=()):
    """Run ``script`` in a new interpreter that imports this package's
    sources; its stdout, stripped. It must exit 0."""
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = SRC
    env.update(env_update or {})
    path = Path(cwd) / "script.py"
    path.write_text(textwrap.dedent(script))
    proc = subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("link", ["cloglog", "logit", "cauchit"])
def test_cli_runs_load_no_scipy(tmp_path, link):
    out = _run(f"""
        import sys
        import numpy as np
        import ebicglm.cli

        rng = np.random.default_rng(0)
        X = rng.standard_normal((60, 6))
        y = (rng.random(60) < -np.expm1(-np.exp(X[:, 1] - X[:, 4]))).astype(float)
        rows = [",".join(repr(float(v)) for v in (y[i], *X[i])) for i in range(60)]
        with open("toy.csv", "w") as fh:
            fh.write("y,a,b,c,d,e,f\\n" + "\\n".join(rows) + "\\n")
        common = ["--input", "toy.csv", "--link", "{link}"]
        assert ebicglm.cli.main(["select", *common, "--out", "sel"]) == 0
        assert ebicglm.cli.main(["fit", *common, "--features", "2,5"]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """, tmp_path)
    assert out.splitlines()[-1] == "[]"


# what a fit, select or diagnose run has no use for: the worker pool, the
# simulation's generators and the modules that hold them
_UNUSED_BY_ONE_PROCESS_RUNS = ("multiprocessing", "concurrent.futures", "numpy.random",
                               "ebicglm.experiments", "ebicglm.simgen")
# the names that ebicglm.experiments and ebicglm.simgen give the package
_LAZY_NAMES = ("experiments", "simgen", "CvLinkReport", "ExperimentSummary", "FinalReport",
               "PdrFdr", "cv_select_link", "pdr_fdr", "real_data_workflow",
               "run_simulation_batch", "SimDesign", "SimReplicate", "TrueModel",
               "cloglog_response", "design_for", "divergent_pattern", "generate_replicate")


def test_one_process_runs_load_no_pool_and_no_generator(tmp_path):
    # the package resolves the batch, CV and simulation names on first use,
    # so select, fit and diagnose load none of what only they need; once
    # asked for, every one of those names resolves
    out = _run(f"""
        import sys
        import numpy as np
        import ebicglm.cli

        X = np.linspace(-1.0, 1.0, 240).reshape(60, 4) ** [1, 2, 3, 4]
        y = (np.arange(60) % 3 == 0).astype(float)
        rows = [",".join(repr(float(v)) for v in (y[i], *X[i])) for i in range(60)]
        with open("toy.csv", "w") as fh:
            fh.write("y,a,b,c,d\\n" + "\\n".join(rows) + "\\n")
        with open("beta.txt", "w") as fh:
            fh.write("0.5\\n-0.5\\n0.0\\n0.0\\n")
        common = ["--input", "toy.csv", "--link", "logit"]
        assert ebicglm.cli.main(["select", *common, "--out", "sel"]) == 0
        assert ebicglm.cli.main(["fit", *common, "--features", "1,3"]) == 0
        assert ebicglm.cli.main(["diagnose", *common, "--beta", "beta.txt"]) == 0
        print([m for m in {_UNUSED_BY_ONE_PROCESS_RUNS!r} if m in sys.modules])
        from ebicglm import experiments, run_simulation_batch
        assert run_simulation_batch is experiments.run_simulation_batch
        print([name for name in {_LAZY_NAMES!r} if not hasattr(ebicglm, name)])
    """, tmp_path)
    assert out.splitlines()[-2:] == ["[]", "[]"]


@pytest.mark.parametrize("link,family", ALL_PAIRS)
def test_only_building_probit_loads_scipy(tmp_path, link, family):
    # a probit link loads SciPy as it is built; no other pair loads it, to
    # be built or to be fitted
    out = _run(f"""
        import sys
        import numpy as np
        from ebicglm import Dataset, ModelIndex, fit_mle, parse_link_family

        lf = parse_link_family({link!r}, {family!r})
        built = "scipy.special" in sys.modules
        rng = np.random.default_rng(0)
        y = {{"bernoulli": (rng.random(40) < 0.4).astype(float),
              "poisson": rng.poisson(2.0, 40).astype(float),
              "gamma": rng.exponential(1.0, 40) + 0.1}}[lf.family.name]
        fit_mle(lf, Dataset(y, np.ones((40, 1))), ModelIndex((), include_intercept=True))
        lf.family.saturated_log_lik(y)
        print(built, "scipy" in sys.modules)
    """, tmp_path)
    loads = link == "probit"
    assert out == f"{loads} {loads}"


def test_a_logit_and_cloglog_workflow_on_a_pool_runs_without_scipy(tmp_path):
    # None in sys.modules makes every import of scipy fail, in this process
    # and in the pool workers it forks
    out = _run("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        from ebicglm import Dataset, real_data_workflow

        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 1100))
        y = (rng.random(40) < 1.0 / (1.0 + np.exp(-X[:, 3]))).astype(float)
        report = real_data_workflow(Dataset(y, X), ("logit", "cloglog"), path_steps=3,
                                    cv_folds=2, cv_path_length=2, threads=2)
        print(sorted(report.rankings),
              sorted(m for m, mod in sys.modules.items()
                     if m.split(".")[0] == "scipy" and mod is not None))
    """, tmp_path)
    assert out == "['cloglog', 'logit'] []"


# each worker notes sys.modules as it was forked, which is its parent's set
# at the fork, and reports what its task added to it
_POOL_MODULES = """
        import os
        import sys
        import numpy as np
        from ebicglm import Dataset, SelectConfig, design_for, experiments, parse_link_family

        at_fork = set()
        os.register_at_fork(after_in_child=lambda: at_fork.update(sys.modules))

        def added(shared, task):
            fn, inner = task
            fn(shared, inner)
            return sorted(set(sys.modules) - at_fork)

        design = design_for("S1", 30)
        config = SelectConfig(include_intercept=False, max_steps=2)
        s1 = experiments._map_tasks(
            (design, 1, config), [(added, (experiments._replicate_task, r)) for r in (0, 1)], 2)
        rng = np.random.default_rng(0)
        data = Dataset((rng.random(30) < 0.4).astype(float), rng.standard_normal((30, 1100)))
        # building the probit link loads SciPy here, before the pool forks
        lfs = [parse_link_family(name) for name in ("logit", "cloglog", "probit")]
        built = "scipy.special" in sys.modules
        golub = experiments._map_tasks(
            data, [(added, (experiments._full_path_task, (lf, 2))) for lf in lfs], 2)
        print(built, s1 + golub)
"""


def test_pool_workers_import_no_module_their_parent_lacked(tmp_path):
    assert _run(_POOL_MODULES, tmp_path) == "True [[], [], [], [], []]"


@pytest.mark.skipif(sys.platform != "linux", reason="the pool forks on Linux only")
def test_pool_workers_are_forked_under_a_forkserver_default(tmp_path):
    # Python 3.14 makes forkserver the default start method on Linux; the
    # pool forks its workers all the same, so they still inherit every module
    prelude = """
        import multiprocessing
        multiprocessing.set_start_method("forkserver", force=True)
"""
    assert _run(prelude + _POOL_MODULES, tmp_path) == "True [[], [], [], [], []]"


def test_per_lane_cholesky_of_a_stack_with_a_refused_lane_loads_no_scipy(tmp_path):
    out = _run("""
        import sys
        import numpy as np
        from ebicglm.glm import _per_lane

        rng = np.random.default_rng(0)
        M = rng.standard_normal((1000, 3, 3))
        spd = M @ M.transpose(0, 2, 1) + 0.1 * np.eye(3)
        alone = np.array([np.linalg.cholesky(a) for a in spd])
        for refused in ([0], [500], [999], [0, 500, 999]):
            h = spd.copy()
            h[refused] = np.diag([1.0, -1.0, 1.0])  # indefinite
            c, ok = _per_lane(np.linalg.cholesky, h)
            assert np.flatnonzero(~ok).tolist() == refused
            # each accepted lane's factor has the bits of its own call
            assert c[ok].tobytes() == alone[ok].tobytes()
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """, tmp_path)
    assert out == "[]"


_DIGEST = """
    import hashlib
    import os
    import ebicglm
    import numpy as np
    from ebicglm import glm, parse_link_family

    # a forward step with m = 14 shared columns (intercept included), where
    # the kernel's BLAS products round by the thread count
    rng = np.random.default_rng(0)
    n, m, C = 500, 14, 32
    X = rng.standard_normal((n, m - 1 + C))
    A = np.hstack([np.ones((n, 1)), X[:, :m - 1]])
    eta = X[:, :m - 1] @ rng.uniform(-0.4, 0.4, m - 1) - 0.5
    y = (rng.random(n) < -np.expm1(-np.exp(eta))).astype(float)
    fits = glm._newton_lanes(y, A, X, np.arange(m - 1, m - 1 + C),
                             parse_link_family("cloglog"), np.zeros(m + 1))
    print(os.environ["OPENBLAS_NUM_THREADS"], os.environ["OMP_NUM_THREADS"],
          hashlib.sha256(fits.beta.tobytes() + fits.log_lik.tobytes()).hexdigest())
"""


def test_blas_is_pinned_to_one_thread_unless_the_caller_set_it(tmp_path):
    unset = _run(_DIGEST, tmp_path, unset=BLAS_VARS).split()
    pinned = _run(_DIGEST, tmp_path, {"OPENBLAS_NUM_THREADS": "1"},
                  unset=BLAS_VARS).split()
    assert unset[:2] == ["1", "1"]
    assert unset[2] == pinned[2]
    kept = _run(_DIGEST, tmp_path, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"})
    assert kept.split()[:2] == ["2", "3"]


def test_this_test_process_runs_blas_on_one_thread():
    # conftest imports ebicglm before numpy, so the package's pin holds here
    # and in the pool workers this process forks, whatever the caller's
    # environment; OpenBLAS is asked through the symbols of its loaded copy
    if os.environ["OPENBLAS_NUM_THREADS"] != "1":
        pytest.skip("the caller chose a BLAS thread count")
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        pytest.skip("no /proc/self/maps")
    counts = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(handle, name):
                counts.append(getattr(handle, name)())
    if not counts:
        pytest.skip("numpy's BLAS is not a known OpenBLAS build")
    assert counts == [1] * len(counts)


ON_GLIBC = platform.libc_ver()[0] == "glibc"
MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_",
               "MALLOC_MMAP_MAX_", "GLIBC_TUNABLES")
TUNED_TRIM = [{"MALLOC_TRIM_THRESHOLD_": "131072"},
              {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}]
glibc_only = pytest.mark.skipif(not ON_GLIBC, reason="glibc's malloc thresholds only")

# minor page faults of a 12-step Setting-1 forward path (n = 200, p = 716, no
# intercept); its lane blocks of 2^16 cells allocate 512 KB arrays
_FAULTS = """
    import resource
    from ebicglm import design_for, forward_select, generate_replicate, parse_link_family

    data = generate_replicate(design_for("S1", 200), 1, 0).dataset
    lf = parse_link_family("cloglog")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    path = forward_select(lf, data, range(data.p), (1.0,), 12, include_intercept=False)
    assert len(path.steps) == 12
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
# without the import's freed 4 MB block this path took about 105,000 faults,
# and about 1,500 with it (glibc 2.36, 2-CPU Xeon host)
FAULT_BOUND = 10_000


@glibc_only
def test_a_forward_path_reuses_its_lane_arrays_from_the_heap(tmp_path):
    assert int(_run(_FAULTS, tmp_path, unset=MALLOC_VARS)) < FAULT_BOUND


@glibc_only
def test_a_malloc_tunable_that_sets_no_threshold_keeps_them_adaptive(tmp_path):
    env = {"GLIBC_TUNABLES": "glibc.malloc.tcache_count=0"}
    assert int(_run(_FAULTS, tmp_path, env, unset=MALLOC_VARS)) < FAULT_BOUND


@glibc_only
@pytest.mark.parametrize("env", TUNED_TRIM)
def test_a_caller_who_tuned_malloc_keeps_the_heap_as_set(tmp_path, env):
    # glibc then keeps its 128 KB mmap threshold, so every lane array is
    # mmapped and faulted in afresh (about 294,000 faults)
    assert int(_run(_FAULTS, tmp_path, env, unset=MALLOC_VARS)) > FAULT_BOUND


# minor page faults of the forked workers of a two-replicate Setting-1 batch
# (n = 200) on a 2-worker pool: about 13,000 with the thresholds inherited
# from the parent's import, 212,000 without the import's freed block, and
# 670,000 with a tuned trim threshold
_POOL_FAULTS = """
    import resource
    from ebicglm import design_for, run_simulation_batch

    run_simulation_batch(design_for("S1", 200), 2, seed=1, threads=2)
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt)
"""
POOL_FAULT_BOUND = 50_000


@glibc_only
def test_pool_workers_inherit_the_heap_thresholds(tmp_path):
    assert int(_run(_POOL_FAULTS, tmp_path, unset=MALLOC_VARS)) < POOL_FAULT_BOUND
    tuned = _run(_POOL_FAULTS, tmp_path, TUNED_TRIM[0], unset=MALLOC_VARS)
    assert int(tuned) > POOL_FAULT_BOUND
