# imported before anything that loads numpy, so that the package's pin of one
# BLAS thread holds in this process and in every pool worker it forks, whatever
# the caller's environment (OpenBLAS reads its thread count when numpy loads it)
import ebicglm  # noqa: F401  isort: skip

import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# every run draws the same examples, and a slow example is not a failure
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
