"""Suite-wide test settings.

The property tests run under one hypothesis profile: derandomized, so every
run draws the same examples and a failure reproduces, with a bounded number
of examples and no per-example deadline, so they stay off the slow path.
"""

from hypothesis import settings

settings.register_profile("onsagergeo", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("onsagergeo")
