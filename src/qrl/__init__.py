"""qrl: exact-arithmetic sequences and rational approximations of sqrt(5).

The package constructs minimal super-increasing and minimal
extra-super-increasing integer sequences, approximates sqrt(5) and the golden
ratio conjugate by a term-ratio-difference method and by the classical
binomial series, and measures how fast the two methods converge, all in exact
rational arithmetic.
"""

from .analysis import (
    ComparisonReport,
    ConvergenceRecord,
    build_comparison,
    emit_report,
    report_from_json,
)
from .exact import (
    DecimalString,
    DigitCapExceeded,
    correct_digits,
    digit_cap,
    int_nth_root,
    parse_decimal,
    rational_to_decimal,
    sqrt5_reference,
    sqrt5_reference_fraction,
    sqrt5_within,
    terminating_digits,
)
from .golden import (
    PhiApproximant,
    phi_conjugate,
    phi_continued_fraction,
    phi_oracle,
    phi_series_partial,
    quadratic_residual,
    sqrt5_from_phi_conjugate,
)
from .ratio import (
    PhiMatchResult,
    RatioRecord,
    find_min_n,
    iter_ratio_records,
    phi_match_report,
    ratio_diff,
    sqrt5_via_ratio,
    term_ratio_mu,
    term_ratio_nu,
)
from .sequences import (
    IntSequence,
    ValidationResult,
    is_extra_super_increasing,
    is_super_increasing,
    minimal_extra_super,
    minimal_extra_super_fast,
    minimal_super,
    minimal_super_fast,
    read_sequence_file,
)
from .series import (
    binomial_coefficient_term,
    iter_partial_sums,
    sqrt5_series_partial,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ConvergenceRecord",
    "DecimalString",
    "DigitCapExceeded",
    "IntSequence",
    "PhiApproximant",
    "PhiMatchResult",
    "RatioRecord",
    "ValidationResult",
    "binomial_coefficient_term",
    "build_comparison",
    "correct_digits",
    "digit_cap",
    "emit_report",
    "find_min_n",
    "int_nth_root",
    "is_extra_super_increasing",
    "is_super_increasing",
    "iter_partial_sums",
    "iter_ratio_records",
    "minimal_extra_super",
    "minimal_extra_super_fast",
    "minimal_super",
    "minimal_super_fast",
    "parse_decimal",
    "phi_conjugate",
    "phi_continued_fraction",
    "phi_match_report",
    "phi_oracle",
    "phi_series_partial",
    "quadratic_residual",
    "ratio_diff",
    "rational_to_decimal",
    "read_sequence_file",
    "report_from_json",
    "sqrt5_from_phi_conjugate",
    "sqrt5_reference",
    "sqrt5_reference_fraction",
    "sqrt5_series_partial",
    "sqrt5_via_ratio",
    "sqrt5_within",
    "term_ratio_mu",
    "term_ratio_nu",
    "terminating_digits",
]
