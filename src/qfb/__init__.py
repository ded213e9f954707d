"""qfb: precision-configurable q-Bessel / q-Fourier-Bessel toolkit.

Evaluates the third Jackson (Hahn-Exton) q-Bessel function J_nu(z;q^2) and
the underlying 1phi1 series under an adaptive cancellation-controlled
precision policy, refines its positive zeros, computes Jackson q-integrals
and q-Fourier-Bessel expansions, and verifies the structural properties of
the zeros, derivative signs, decay rates and orthogonality numerically.
"""

from .precision import (DivergenceError, EvalResult, PrecisionContext,
                        PrecisionError, adaptive_sum, tracked_sum)
from .qcore import (BaseMismatchError, LatticeFunction, QParams,
                    inner_product, norm_lq2, qintegral_01,
                    qpochhammer_infinite, qpochhammer_multi, same_base)
from .qspecial import jnu3, jnu3_derivative, phi11, phi11_derivative
from .zeros import (ScanExhaustedError, ZeroRecord, alpha_k, bracket_zero,
                    count_zeros_below, dense_scan_brackets,
                    derivative_sign_pattern, empirical_k0, find_zero,
                    verify_decay_bounds, verify_shifted_zero,
                    verify_sign_constancy, zero_table, zero_table_to_csv,
                    zero_table_to_json)
from .expansion import (BasisFunction, ETA_METHODS, ExpansionResult,
                        ModeCache, coefficient, eta_k, expand, gram_matrix,
                        partial_sum, riemann_lebesgue_rate)
from .verify import (ANCHORS, CHECK_IDS, CheckResult, VerificationReport,
                     run_checks)

__version__ = "0.1.0"

__all__ = [
    "PrecisionContext", "EvalResult", "PrecisionError", "DivergenceError",
    "adaptive_sum", "tracked_sum",
    "QParams", "LatticeFunction", "BaseMismatchError", "same_base",
    "qpochhammer_infinite", "qpochhammer_multi",
    "qintegral_01", "inner_product", "norm_lq2",
    "phi11", "phi11_derivative", "jnu3", "jnu3_derivative",
    "ZeroRecord", "ScanExhaustedError", "alpha_k", "bracket_zero",
    "find_zero", "zero_table", "empirical_k0", "count_zeros_below",
    "dense_scan_brackets", "verify_shifted_zero", "derivative_sign_pattern",
    "verify_sign_constancy", "verify_decay_bounds", "zero_table_to_csv",
    "zero_table_to_json",
    "ETA_METHODS", "BasisFunction", "ModeCache", "eta_k", "coefficient",
    "partial_sum",
    "gram_matrix", "riemann_lebesgue_rate", "expand", "ExpansionResult",
    "ANCHORS", "CHECK_IDS", "CheckResult", "VerificationReport",
    "run_checks",
]
