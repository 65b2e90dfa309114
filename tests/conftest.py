"""Suite-wide set-up, and the helpers that several test files share.

One deterministic hypothesis profile: ``derandomize`` draws the same
examples on every run, ``deadline=None`` fails no example on wall time
alone, and no example database is written.  One int/str digit limit, the
default, whatever PYTHONINTMAXSTRDIGITS or -X int_max_str_digits says: a
test that lifts it does so for its own lines only, with digit_limit.
Test files import the helpers with ``from conftest import ...``, and the
model of the paper with ``import model``.
"""

import sys
import time
from contextlib import contextmanager
from itertools import zip_longest

import pytest

from hfcodec import cli
from hfcodec.hftree import Forest

sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)

try:
    from hypothesis import settings, strategies as st
except ImportError:  # the property tests skip themselves without hypothesis
    naturals = big_naturals = None
else:
    settings.register_profile("hfcodec", derandomize=True, deadline=None, database=None)
    settings.load_profile("hfcodec")

    @st.composite
    def naturals(draw, max_bits=4096):
        """A natural below 2**bits, for bits drawn from 0 to max_bits."""
        bits = draw(st.integers(0, max_bits))
        return draw(st.integers(0, (1 << bits) - 1))

    @st.composite
    def big_naturals(draw, min_bits=4096, max_bits=65536):
        """A natural of exactly bits bits, for bits drawn from min_bits to max_bits."""
        bits = draw(st.integers(min_bits, max_bits))
        return draw(st.integers(1 << (bits - 1), (1 << bits) - 1))


def F(*ts):
    return Forest(ts)


def natural_error(x):
    """The exception type and message with which a codec refuses x as a natural."""
    if type(x) is int:
        return ValueError, f"expected a natural number, got {x}"
    return TypeError, f"expected a natural number, got {type(x).__name__}"


def run_cli(capsys, *argv):
    """cli.main(argv) in-process: its exit code, stdout and stderr."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse reports its own errors this way
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@contextmanager
def _budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget is {seconds}s"


@contextmanager
def digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@contextmanager
def recursion_limit(limit):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def assert_same(got, want, context=""):
    """got == want for two sequences, reported by their first difference:
    pytest's own diff of two long texts can take minutes.  Two texts are
    compared character by character and reported with 20 on each side,
    after the context, if any."""
    if got != want:
        k, (a, b) = next((k, pair) for k, pair in enumerate(zip_longest(got, want))
                         if pair[0] != pair[1])
        if isinstance(got, str) and isinstance(want, str):
            a, b = got[max(k - 20, 0):k + 21], want[max(k - 20, 0):k + 21]
        pytest.fail(f"{context}{': ' if context else ''}item {k} differs: {a!r} against {b!r}")
