"""run_checks API: the settings it accepts."""

import pytest

from qfb import PrecisionContext, QParams, run_checks


def test_unknown_option_rejected_before_any_work():
    with pytest.raises(TypeError, match="gram_size"):
        run_checks(QParams("0.5", "0"), PrecisionContext(digits=40), kmax=2,
                   check_ids=["gram"], gram_size=4)
