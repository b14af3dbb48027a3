"""Shared test settings: one Hypothesis profile for every property test.

Each `@settings` then names only its `max_examples`. The examples are
derived from the test itself (`derandomize`), so a run repeats exactly;
no per-example deadline applies, since timings on a shared host vary;
and no example database is written.
"""

from hypothesis import settings

settings.register_profile("brolip", derandomize=True, deadline=None, database=None)
settings.load_profile("brolip")
