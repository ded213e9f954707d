"""Shared fixtures: precision contexts and cached zero tables.

Zero refinement at 120 digits is the expensive step, so tables are computed
once per (q, nu) and shared across the whole session.
"""

import pytest

from qfb import PrecisionContext, QParams, zero_table

DESK_Q = ("0.3", "0.5", "0.8")
DESK_NU = ("0", "0.5", "1", "2.5")


@pytest.fixture(scope="session")
def ctx120():
    return PrecisionContext(digits=120)


@pytest.fixture(scope="session")
def ctx40():
    return PrecisionContext(digits=40)


@pytest.fixture(scope="session")
def zero_tables(ctx120):
    """Lazily computed, session-cached zero records keyed by (q, nu); a
    longer table serves a shorter request with its first kmax records."""
    cache = {}

    def get(q, nu, kmax=12):
        key = (q, nu)
        if key not in cache or len(cache[key]) < kmax:
            params = QParams(q, nu)
            cache[key] = {r.k: r for r in zero_table(params, kmax, ctx120)}
        return {k: r for k, r in cache[key].items() if k <= kmax}

    return get
