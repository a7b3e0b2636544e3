"""One hypothesis profile for every property test: no per-example
deadline (the first example of a test pays its imports and caches), and a
failing example prints its ``@reproduce_failure`` blob."""

from hypothesis import settings

settings.register_profile("dibvp", deadline=None, print_blob=True)
settings.load_profile("dibvp")
