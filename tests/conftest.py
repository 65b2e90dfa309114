"""Suite-wide set-up: one deterministic hypothesis profile and one digit limit.

``derandomize`` makes every property test draw the same examples on
every run, and ``deadline=None`` keeps a slow or loaded host from
failing an example on wall time alone.  No example database is written.

The CLI's decimal budget holds under any int/str digit limit, but
str() and int() of a long number fail only under one, and the tests
expect the default: they pin it whatever PYTHONINTMAXSTRDIGITS or
-X int_max_str_digits says; a test that lifts it does so for its own
lines only.
"""

import sys

sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("hfcodec", derandomize=True, deadline=None, database=None)
    settings.load_profile("hfcodec")
