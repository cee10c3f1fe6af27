from hypothesis import settings

# One fixed profile for every property test: the same examples on every
# run (derandomize), no per-example deadline on a loaded host, and
# hypothesis's default example count unless a test sets its own.
settings.register_profile("totaldp", max_examples=100, deadline=None, derandomize=True)
settings.load_profile("totaldp")
