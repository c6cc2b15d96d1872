"""GHZ/W qudit families and their entanglement sharing identities.

The family parameter d = 2N (N even, so d is a positive multiple of 4)
labels a three-party pure state assembled from N three-qubit copies:
N/2 GHZ copies and N/2 W copies.  Qubit k of every copy belongs to
party k, so each party ends up holding N qubits (a 2^N-dimensional
system); d is the family's own size label, not the party dimension.

Tangles compose additively over copies, so every report is assembled
from the exact per-copy values below: the tangles as fractions, H and
the witness in closed form.  The module imports only the standard
library; verify checks each constant against the brute-force
density-matrix route of qubits.py.  Only n_copies checks d, once per
tangle_report; nongaussianity and squashed_bounds take d as checked.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

# the tangles of one three-qubit copy: tau_{1|23} = 4 det rho_1, the pair
# tangle tau_12 = tau_13 = C^2, and the three-tangle
# tau_{1|23} - tau_12 - tau_13 (Coffman, Kundu & Wootters, PRA 61, 052306
# (2000); Dür, Vidal & Cirac, PRA 62, 062314 (2000))
CopyTangles = namedtuple("CopyTangles", "one_vs_rest pairwise three_tangle")
GHZ_TANGLES = CopyTangles(Fraction(1), Fraction(0), Fraction(1))
W_TANGLES = CopyTangles(Fraction(8, 9), Fraction(4, 9), Fraction(0))
# entropy in bits of the W one-qubit reduction, eigenvalues 1/3 and 2/3
W_QUBIT_ENTROPY = math.log2(3) - 2 / 3
# negativity of the W two-qubit reduction, whose one negative PT
# eigenvalue is (1 - sqrt 5)/6
W_PAIR_NEGATIVITY = (math.sqrt(5) - 1) / 3

QuditTangleReport = namedtuple(
    "QuditTangleReport",
    "d three_tangle pairwise_tangle one_vs_rest_tangle monogamy_gap nongaussianity squashed",
)
QuditTangleReport.__doc__ = """Tangle statistics of the d-family member, exact where exactness holds.

The three rational tangles and the monogamy gap are the exact per-copy
values composed additively; nongaussianity is a float and squashed holds
the SquashedBounds.
"""

SquashedBounds = namedtuple("SquashedBounds", "one_vs_rest tripartite_lower pairwise_form pairwise_witness")
SquashedBounds.__doc__ = """Squashed-entanglement bookkeeping for the d-family member.

The pairwise bound is only known in the form omega * d / 4 with
omega > 0; pairwise_witness is the negativity of the two-qubit W
reduction certifying the strict positivity.
"""


def _validate_d(d) -> int:
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"d must be an integer, got {d!r}")
    if d < 4 or d % 4 != 0:
        raise ValueError(
            f"d must be a positive multiple of 4 (d = 2N with N even), got {d}"
        )
    try:
        float(d)  # every float field of a report is at most d
    except OverflowError:
        raise OverflowError(
            f"d must not exceed the float64 limit {sys.float_info.max!r}, got d >= 2**{d.bit_length() - 1}"
        ) from None
    return d


def n_copies(d: int) -> tuple[int, int]:
    """(GHZ copies, W copies) making up the d-family member: (d/4, d/4).

    The one check of d: a d that is not a positive multiple of 4 raises
    ValueError, and one past the float64 range OverflowError.
    """
    d = _validate_d(d)
    return d // 4, d // 4


def nongaussianity(d: int) -> float:
    """Trace-distance-squared gap to the closest Gaussian-reachable state.

    1/2 + 2^(-3d/4 - 1) 3^(-d/4) - 2^(d/2) 3^(-3d/2) 7^(d/4), which with
    q = d/4 is 1/2 + (1/2)(1/24)^q - (28/729)^q; about 0.4824 at d = 4
    and converging to 1/2 as d grows.  Both powers have bases below 1, so
    they underflow to 0 for large d instead of overflowing.  The formula
    is quoted, not derived: the package neither builds the closest
    Gaussian-reachable state nor computes the distance by a second route.
    """
    q = d // 4
    return 0.5 + 0.5 * (1 / 24) ** q - (28 / 729) ** q


def squashed_bounds(d: int) -> SquashedBounds:
    """Squashed-entanglement bounds composed from the per-copy values.

    one_vs_rest = (d/4)(1 + H) with H the entropy of a W one-qubit
    reduction; the tripartite lower bound is exactly d/4 (one unit per
    GHZ copy); the pairwise bound keeps the symbolic form omega*d/4 with
    omega certified positive by the negativity of the two-qubit W
    reduction.
    """
    return SquashedBounds(
        one_vs_rest=(d / 4.0) * (1.0 + W_QUBIT_ENTROPY),
        tripartite_lower=Fraction(d, 4),
        pairwise_form="omega*d/4",
        pairwise_witness=W_PAIR_NEGATIVITY,
    )


def tangle_report(d: int) -> QuditTangleReport:
    """Tangle statistics of the d-family member.

    The exact per-copy tangles are composed additively over the d/4 + d/4
    copies.  The monogamy gap one_vs_rest - 2 * pairwise - three_tangle is
    exactly zero.
    """
    ghz_copies, w_copies = n_copies(d)
    one_vs_rest, pairwise, three = (ghz_copies * ghz + w_copies * w for ghz, w in zip(GHZ_TANGLES, W_TANGLES))
    return QuditTangleReport(
        d=d,
        three_tangle=three,
        pairwise_tangle=pairwise,
        one_vs_rest_tangle=one_vs_rest,
        monogamy_gap=one_vs_rest - 2 * pairwise - three,
        nongaussianity=nongaussianity(d),
        squashed=squashed_bounds(d),
    )
