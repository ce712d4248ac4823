"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` replays a CI run locally.

The ``ci`` profile derandomizes example generation, so the same code draws
the same examples on every machine, and prints the reproduction blob of any
failure.  Per-test settings such as ``max_examples`` still apply on top.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
