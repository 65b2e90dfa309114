"""Suite-wide set-up: one deterministic hypothesis profile.

``derandomize`` makes every property test draw the same examples on
every run, and ``deadline=None`` keeps a slow or loaded host from
failing an example on wall time alone.  No example database is written.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("hfcodec", derandomize=True, deadline=None, database=None)
    settings.load_profile("hfcodec")
