"""tracked_sum: the exact accumulation against the mpf loop it replaced."""

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from qfb.precision import PrecisionError, tracked_sum

LOW_EXP = -300


def reference_tracked_sum(terms, dps, max_terms, min_terms=4):
    """The truncation loop as it was before the exact accumulation: a
    running mpf total, rounded after every term."""
    total = mpf(0)
    max_mag = mpf(0)
    cutoff_scale = mpf(10) ** (-dps)
    cutoff = max_mag * cutoff_scale
    small_streak = 0
    n = 0
    for term in terms:
        total += term
        n += 1
        mag = abs(term)
        pmag = abs(total)
        if mag > max_mag or pmag > max_mag:
            max_mag = mag if mag > pmag else pmag
            cutoff = max_mag * cutoff_scale
        if n >= min_terms and mag <= cutoff:
            small_streak += 1
            if small_streak >= 3:
                return total, max_mag, n
        else:
            small_streak = 0
        if n >= max_terms:
            raise PrecisionError(
                f"series cap of {max_terms} terms exhausted")
    return total, max_mag, n


# mixed signs, zero terms, magnitudes across +-300 binary orders
TERM = st.tuples(st.integers(-2 ** 70, 2 ** 70),
                 st.integers(LOW_EXP, -LOW_EXP))


@given(raw=st.lists(TERM, max_size=40), undo=st.integers(0, 40),
       dps=st.integers(1, 40), min_terms=st.integers(0, 6))
@example(raw=[(1, 300), (1, -300)], undo=1, dps=30, min_terms=0)
@settings(max_examples=300, deadline=None)
def test_matches_mpf_loop_and_rounds_the_exact_sum_once(raw, undo, dps,
                                                        min_terms):
    # the stream ends by taking back its first `undo` terms, so partial
    # sums cancel, as they do in a J series near q^(-m)
    raw = raw + [(-man, exp) for man, exp in raw[:undo]]
    with mp.workdps(dps + 10):
        terms = [mpf(pair) for pair in raw]
        value, max_mag, n = tracked_sum(iter(terms), dps, 1000, min_terms)
        _, _, want_n = reference_tracked_sum(iter(terms), dps, 1000,
                                             min_terms)
        assert n == want_n
        # every term is an integer multiple of 2^LOW_EXP, so these sums
        # are exact; mpf((man, exp)) rounds them once
        partial = 0
        largest = 0
        for t in terms[:n]:
            sign, man, exp, _ = t._mpf_
            scaled = man << (exp - LOW_EXP)
            partial += -scaled if sign else scaled
            largest = max(largest, scaled, abs(partial))
        assert value == mpf((partial, LOW_EXP))
        assert max_mag == mpf((largest, LOW_EXP))


@pytest.mark.parametrize("min_terms,want", [(0, (0, 0, 3)), (1, (0, 0, 3)),
                                            (2, (1, 1, 4))])
def test_leading_zeros_count_from_min_terms(min_terms, want):
    # zero terms are below any cutoff, also while nothing else is in; with
    # min_terms = 2 the first zero does not count and the 1 is reached
    terms = [mpf(0), mpf(0), mpf(0), mpf(1)]
    with mp.workdps(40):
        assert tracked_sum(iter(terms), 30, 10, min_terms) == want


def test_cap_is_kept():
    with mp.workdps(40):
        with pytest.raises(PrecisionError):
            tracked_sum(iter([mpf(1)] * 10), 30, 5)
