"""EBIC-guided variable selection for GLMs with non-canonical links."""

import importlib
import os

# One BLAS thread per process, so that ``--threads`` (worker processes) is the
# only parallelism and a fit's bits do not depend on the host's core count.
# OpenBLAS reads these once, when numpy first loads it, so this must run
# before the first numpy import; a value the caller set is kept, and a
# process that imported numpy before ebicglm keeps the threads it started.
# Every manifest.json records each variable's value after this and whether
# this import set it.
_BLAS_THREADS = {}
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    _set_here = _var not in os.environ
    _BLAS_THREADS[_var] = {"value": os.environ.setdefault(_var, "1"),
                           "set_by_ebicglm": _set_here}
del _var, _set_here

# Keep a Newton block's freed lane arrays in the heap. glibc's malloc serves
# a block at or above its mmap threshold (128 KB at start) by mmap and
# returns it to the OS when freed, and trims the top of the heap once more
# than its trim threshold is free there. Freeing an mmapped block above the
# mmap threshold raises that threshold to the block's size and the trim
# threshold to twice it, unless the caller tuned the thresholds, top pad or
# mmap count through glibc's own variables. So one block of 8 lane arrays
# (4 MB) is allocated and freed here, which sets 4 MB and 8 MB: a lane
# block's working set (12 or fewer 512 KB arrays) is then reused from the
# heap instead of faulted in afresh on every Newton iteration. Forked
# workers inherit the thresholds; spawned ones import the package and free
# the block themselves.
import numpy

from .glm import LANE_BLOCK_CELLS

numpy.empty(8 * LANE_BLOCK_CELLS)
del numpy, LANE_BLOCK_CELLS

from .ebic import (
    GammaGrid,
    ModelScore,
    ebic_score,
    gamma_grid,
    log_choose,
    paper_final_gamma,
    resolve_gamma,
)
from .errors import (
    DataError,
    DomainError,
    EbicGlmError,
    EmptyCandidates,
    FoldTooSmall,
    InvalidArgs,
    InvalidDesign,
    InvalidRho,
    PathEmpty,
    RankDeficient,
    UnsupportedPair,
)
from .glm import (
    Dataset,
    DiagnosticReport,
    FitResult,
    HessianParts,
    ModelIndex,
    c6_diagnostics,
    fit_mle,
    hessian_parts,
    log_likelihood,
    score,
)
from .links import (
    Arcsin,
    Bernoulli,
    Cauchit,
    Cloglog,
    Family,
    Gamma,
    Identity,
    InversePower,
    Link,
    LinkFamily,
    Log,
    Logit,
    Poisson,
    Probit,
    compose_link_family,
    eval_mean,
    parse_family,
    parse_link,
    parse_link_family,
)
from .select import (
    ScreenResult,
    SelectConfig,
    SelectionPath,
    SelectionReport,
    forward_select,
    screen_mme,
    select_pipeline,
)

__version__ = "0.1.0"

# The replicate batch, CV link choice and simulation designs load on first
# use (PEP 562), so that fit, select and diagnose runs load neither the pool
# (multiprocessing, concurrent.futures) nor numpy.random; see README,
# "Start-up".
_LAZY = {
    "experiments": (
        "CvLinkReport",
        "ExperimentSummary",
        "FinalReport",
        "PdrFdr",
        "cv_select_link",
        "pdr_fdr",
        "real_data_workflow",
        "run_simulation_batch",
    ),
    "simgen": (
        "SimDesign",
        "SimReplicate",
        "TrueModel",
        "cloglog_response",
        "design_for",
        "divergent_pattern",
        "generate_replicate",
    ),
}
_LAZY_FROM = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY_FROM:
        return getattr(importlib.import_module(f".{_LAZY_FROM[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_LAZY, *_LAZY_FROM])
