"""EBIC-guided variable selection for GLMs with non-canonical links."""

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
# a block of at least M_MMAP_THRESHOLD bytes by mmap and returns it to the
# OS when freed, and gives the top of the heap back once more than
# M_TRIM_THRESHOLD bytes are free there; both thresholds rise with the
# largest mmapped block the process has freed so far. A process that frees
# nothing large first keeps thresholds below a lane block's working set, and
# faults its pages in afresh on nearly every Newton iteration. So both are
# set here from ``glm.LANE_BLOCK_CELLS`` (setting either one stops both from
# adapting), unless the caller tuned malloc through glibc's own variables or
# the C library is not glibc. Forked workers inherit the setting; spawned
# workers import the package and set it themselves.
_MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt(3) parameters


def _set_heap_thresholds():
    """Whether this import set glibc's mmap and trim thresholds."""
    if (any(var in os.environ for var in _MALLOC_VARS)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False
    import ctypes

    from .glm import LANE_BLOCK_CELLS

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    lane_array = 8 * LANE_BLOCK_CELLS  # bytes
    return (mallopt(_M_MMAP_THRESHOLD, 2 * lane_array) == 1
            and mallopt(_M_TRIM_THRESHOLD, 32 * lane_array) == 1)


_HEAP_THRESHOLDS_SET = _set_heap_thresholds()

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
from .experiments import (
    CvLinkReport,
    ExperimentSummary,
    FinalReport,
    PdrFdr,
    cv_select_link,
    pdr_fdr,
    real_data_workflow,
    run_simulation_batch,
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
from .simgen import (
    SimDesign,
    SimReplicate,
    TrueModel,
    cloglog_response,
    design_for,
    divergent_pattern,
    generate_replicate,
)

__version__ = "0.1.0"
