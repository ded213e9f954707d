"""tracked_sum: the exact accumulation against the mpf loop it replaced,
its integer streams against its mpf streams, and the exact lost-digit
count against the 30-digit log10 it replaced; the acceptance and escalation
of the one loop behind certified_sign and adaptive_sum."""

from itertools import chain, repeat

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from qfb.precision import (EXTRA_GUARD, PrecisionContext, PrecisionError,
                           _lost_digits, adaptive_sum, certified_sign,
                           tracked_sum)

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


@given(ints=st.lists(st.integers(-2 ** 200, 2 ** 200), max_size=40),
       undo=st.integers(0, 40), exp=st.integers(-400, 200),
       dps=st.integers(1, 60), min_terms=st.integers(0, 6))
@example(ints=[1, 0, 0, 0], undo=0, exp=0, dps=30, min_terms=2)
@settings(max_examples=300, deadline=None)
def test_int_stream_matches_mpf_stream(ints, undo, exp, dps, min_terms):
    ints = ints + [-t for t in ints[:undo]]
    with mp.workprec(256):              # every t 2^exp exactly
        exact = [mpf((t, exp)) for t in ints]
    with mp.workdps(dps + 10):
        got = tracked_sum(iter(ints), dps, 1000, min_terms, exp=exp)
        want = tracked_sum(iter(exact), dps, 1000, min_terms)
        assert got == want
        value, max_mag, n = got
        partial = largest = 0
        for t in ints[:n]:
            partial += t
            largest = max(largest, abs(t), abs(partial))
        assert value == mpf((partial, exp))       # rounded once
        assert max_mag == mpf((largest, exp))


def log10_rule(max_mag, value, digits, dps):
    """Acceptance and escalation target as decided before the exact count:
    lost digits from a 30-digit log10."""
    with mp.workdps(30):
        lost = mp.log10(max_mag / abs(value))
    return (dps >= digits + lost + 5,
            int(mp.ceil(digits + lost)) + EXTRA_GUARD)


@given(man=st.integers(1, 2 ** 300), power=st.integers(0, 400),
       rel=st.integers(3, 10), above=st.booleans(), negative=st.booleans(),
       digits=st.integers(30, 200))
@settings(max_examples=300, deadline=None)
def test_lost_digits_decides_as_log10_did(man, power, rel, above, negative,
                                         digits):
    # max_mag = |value| 10^power (1 +- 10^-rel): just above or below a power
    # of ten, at the working precision of a pass that sits on the boundary.
    # The old rule added digits + lost + 5 at the ambient precision (53 bits
    # here), so it could not see an excess below about 10^-13; the offsets
    # stay well above that.
    dps = digits + power + 5
    with mp.workdps(dps + 10):
        value = mpf(-man if negative else man)
        with mp.workdps(dps + 60):
            ratio = mpf(10) ** power * (1 + (1 if above else -1)
                                        * mpf(10) ** -rel)
        max_mag = abs(value) * ratio
        lost = _lost_digits(max_mag, value)
    assert lost == power + above
    assert log10_rule(max_mag, value, digits, dps) == (
        dps >= digits + lost + 5, digits + lost + EXTRA_GUARD)


@pytest.mark.parametrize("power", [0, 1, 7, 30, 40])
def test_lost_digits_at_exact_powers_of_ten(power):
    with mp.workdps(100):
        value = mpf(3) / 7
    with mp.workprec(1000):
        max_mag = value * 10 ** power       # exact
    with mp.workdps(100):
        assert _lost_digits(max_mag, value) == power
        assert log10_rule(max_mag, value, 40, 45 + power) == (True,
                                                             50 + power)


@pytest.mark.parametrize("bad", ["+inf", "-inf", "nan"])
def test_non_finite_term_rejected(bad):
    # inf and nan carry mantissa 0, like a zero term
    with mp.workdps(30):
        terms = [mpf(1), mpf(bad), mpf(2)]
        with pytest.raises(ValueError, match="term 2 .* not finite"):
            tracked_sum(iter(terms), 30, 100, 0)


def stream(ints, exp=0, passes=None):
    """make_terms of a fixed integer stream followed by zeros, recording
    each pass's working dps in ``passes``."""
    def make_terms():
        if passes is not None:
            passes.append(mp.dps)
        return chain(ints, repeat(0)), exp
    return make_terms


def test_certified_sign_accepts_a_clear_sign_at_its_first_pass():
    passes = []
    assert certified_sign(stream([-3, 1], -5, passes), 30, 100) == \
        (-1, 30, mpf(-2) / 32)
    assert passes == [30 + EXTRA_GUARD]


def test_certified_sign_escalates_past_the_lost_digits():
    # 40 digits cancel in 10^40 - (10^40 - 1); with 5 terms summed the
    # guard is log10(50) + 10, so 57 digits certify the sign
    passes = []
    got = certified_sign(stream([10 ** 40, 1 - 10 ** 40], 0, passes), 30,
                         1000)
    assert got == (1, 57, 1)
    assert passes == [30 + EXTRA_GUARD, 57 + EXTRA_GUARD]


def test_certified_sign_of_an_exact_zero_raises_at_the_cap():
    passes = []
    with pytest.raises(PrecisionError, match="no certified sign"):
        certified_sign(stream([1, -1], 0, passes), 30, 100)
    assert passes == [d + EXTRA_GUARD for d in (30, 47, 71, 100)]


def test_adaptive_sum_accepts_5_lost_digits_at_its_first_pass():
    # 10^5 - (10^5 - 1) loses exactly 5 digits; zeros end the stream after
    # the 4 terms min_terms asks for and 2 more
    passes = []
    got = adaptive_sum(stream([10 ** 5, 1 - 10 ** 5], 0, passes),
                       PrecisionContext(30))
    assert (got.value, got.max_partial_magnitude, got.terms_used,
            got.precision_used) == (1, 10 ** 5, 6, 30 + EXTRA_GUARD)
    assert passes == [30 + 2 * EXTRA_GUARD]


def test_adaptive_sum_escalates_once_past_the_lost_digits():
    # 40 lost digits: the first pass (40 dps) needs 30 + 40 + 5, so the
    # second runs at 30 + 40 + 10 and is accepted
    passes = []
    got = adaptive_sum(stream([10 ** 40, 1 - 10 ** 40], 0, passes),
                       PrecisionContext(30))
    assert (got.value, got.precision_used) == (1, 80)
    assert passes == [40 + EXTRA_GUARD, 80 + EXTRA_GUARD]


def test_adaptive_sum_of_an_exact_zero_raises_at_the_cap():
    passes = []
    ctx = PrecisionContext(30)
    with pytest.raises(PrecisionError,
                       match="no certified value to 30 digits within 2030"):
        adaptive_sum(stream([1, -1], 0, passes), ctx)
    assert passes == [d + EXTRA_GUARD for d in
                      (40, 80, 120, 180, 270, 405, 608, 912, 1368,
                       ctx.dps_cap)]
