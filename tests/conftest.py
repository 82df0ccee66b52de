import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# every run draws the same examples, and a slow example is not a failure
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
