"""Settings for the hypothesis tests that do not set their own.

Examples stay random, but no example fails for its time alone: a 200 ms
deadline, hypothesis's default, can trip on a loaded host.  A failure
prints the blob that reproduces it with ``@reproduce_failure``.
"""

from hypothesis import settings

settings.register_profile("bridgekit", deadline=None, print_blob=True)
settings.load_profile("bridgekit")
