"""Suite-wide Hypothesis profiles.

Tier-1 is an acceptance bar ("no worse than the parent"), so it must
not depend on a draw: the default ``ci`` profile derives every
property test's examples from a hash of the test function and ignores
the local example database, making two runs of one checkout identical.
A scheduled job that *wants* fresh examples selects the randomized
profile with ``HYPOTHESIS_PROFILE=nightly``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("nightly", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
