"""Exact arithmetic and root finding for power series over non-Archimedean
ordered fields, in two flavors: a field with a topologically nilpotent
infinitesimal (lc mode) and one with a strictly faster-shrinking sequence of
infinitesimals and no nilpotent element (hahn mode).

The pipeline: normalize a series converging on a closed interval to a
restricted series over the ring of finite elements, split it into a monic
polynomial times a unit series, and read roots, counts, multiplicities and
partial-sum behavior off the polynomial factor: all with exact certificates.
"""

from .errors import CertificateError, LcivtError, ResourceCapError, TruncationError
from .lcnum import HAHN, LC, Classification, Exponent, LcNumber, eps, eps_n
from .realalg import RealAlgebraic, isolate_real_roots, sign_at
from .pseries import (
    NormalizedSeries,
    PolyMulSeries,
    PolySeries,
    RatFunSeries,
    SubstitutedSeries,
    SumSeries,
    TermRuleSeries,
    evaluate,
    normalize,
    partial_sum,
    transform_interval,
)
from .hensel import Factorization, n_poly_root, weierstrass_factor
from .rootfind import (
    RootReport,
    TrackRecord,
    count_zeros,
    default_exponent,
    ivt_root,
    monic_real_roots,
    multiplicity_at,
    poly_roots,
    track_extremes,
    track_partial_sum_zeros,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateError", "LcivtError", "ResourceCapError", "TruncationError",
    "HAHN", "LC", "Classification", "Exponent", "LcNumber", "eps", "eps_n",
    "RealAlgebraic", "isolate_real_roots", "sign_at",
    "NormalizedSeries", "PolyMulSeries", "PolySeries", "RatFunSeries",
    "SubstitutedSeries", "SumSeries", "TermRuleSeries",
    "evaluate", "normalize", "partial_sum", "transform_interval",
    "Factorization", "n_poly_root", "weierstrass_factor",
    "RootReport", "TrackRecord", "count_zeros", "default_exponent",
    "ivt_root", "monic_real_roots", "multiplicity_at", "poly_roots",
    "track_extremes", "track_partial_sum_zeros",
]
