"""Suite-wide set-up: one deterministic hypothesis profile and one digit limit.

``derandomize`` makes every property test draw the same examples on
every run, and ``deadline=None`` keeps a slow or loaded host from
failing an example on wall time alone.  No example database is written.

The CLI's decimal budget refuses only where the interpreter's int/str
digit limit would, so the tests pin the default limit whatever
PYTHONINTMAXSTRDIGITS or -X int_max_str_digits says; a test that
lifts it does so for its own lines only.
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
