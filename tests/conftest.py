"""Shared test settings.

Property tests draw the same examples on every run (``derandomize``; this
also keeps Hypothesis's example database out of play), so a failure
reproduces, and run without a per-example deadline, since wall time on a
shared host varies from run to run.
"""

from hypothesis import settings

settings.register_profile("numrad", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("numrad")
