"""Exact identities of the four-mode family, in rational arithmetic.

At x = e^a and y = e^s every entry of S = S_34(a) S_12(a) S_23(s) is a
rational function of x and y: cosh a = (x + 1/x)/2, sinh a = (x - 1/x)/2.
So at rational x and y the transform, its state sigma = S S^T and their
identities hold exactly in fractions.Fraction, with no float64 rounding
and no tolerance: S is symplectic, each one-mode reduction has
determinant m_k^2 with the m_k that contangle's closed forms use, and the
{1, 2} reduction has determinant cosh^2 2s.  Each closed one-vs-rest
contangle is arccosh^2 of the square root of its exact determinant, which
tells the outer probes' m from the middle ones'.  The float64 transform
four_mode.build_transform writes out is then compared with the exact one
entry by entry, and the exact PPT verdict of each pair with the closed
forms' pair contangle being 0.  Where the middle pair {2, 3} is entangled,
contangle's m_23 must give the smaller root of the characteristic
polynomial of its partially transposed block.
"""
import itertools
import math
from fractions import Fraction

import pytest

from promiscuity.contangle import PAIRS, SqueezingParams, _m_23, a_terms, closed_forms, s_terms
from promiscuity.four_mode import _transform_entries

N_MODES = 4
# x = e^a and y = e^s by label; each is a float64 exactly
X_VALUES = {"1": Fraction(1), "5/4": Fraction(5, 4), "2": Fraction(2), "2^10": Fraction(2) ** 10,
            "2^64": Fraction(2) ** 64, "2^200": Fraction(2) ** 200}
Y_VALUES = {"1": Fraction(1), "3/2": Fraction(3, 2), "10": Fraction(10), "2^64": Fraction(2) ** 64,
            "2^200": Fraction(2) ** 200}
POINTS = [
    pytest.param(x, y, id=f"x={x_label},y={y_label}")
    for (x_label, x), (y_label, y) in itertools.product(X_VALUES.items(), Y_VALUES.items())
]
# relative bound on a nonzero float64 entry at a = log x, s = log y, in units of
# (a + s + 4) * 2^-52: an error of one rounding in a moves cosh a by a relative
# a * 2^-53.  As x and y are float64 values, math.log is the only rounding of
# the degrees; a scan of 6084 such points measured at most 0.54 units
ENTRY_REL_TOL = 4.0


def _cosh_sinh(x: Fraction) -> tuple[Fraction, Fraction]:
    return (x + 1 / x) / 2, (x - 1 / x) / 2


def _matmul(left: list, right: list) -> list:
    return [[sum(l * r for l, r in zip(row, col)) for col in zip(*right)] for row in left]


def _transpose(mat: list) -> list:
    return [list(col) for col in zip(*mat)]


def _det(mat: list) -> Fraction:
    # Laplace expansion along the first row; the blocks here are at most 4 x 4
    if len(mat) == 1:
        return mat[0][0]
    return sum(
        (-1) ** j * entry * _det([row[:j] + row[j + 1:] for row in mat[1:]])
        for j, entry in enumerate(mat[0])
        if entry
    )


def _block(mat: list, modes: list) -> list:
    # the q and p rows and columns of `modes` (0-based), in qqpp order
    idx = [*modes, *(m + N_MODES for m in modes)]
    return [[mat[i][j] for j in idx] for i in idx]


def _squeezer(i: int, j: int, x: Fraction) -> list:
    # two-mode squeezer of degree log x on 0-based modes i, j: +sinh in the q block, -sinh in the p block
    c, sh = _cosh_sinh(x)
    mat = [[Fraction(int(r == k)) for k in range(2 * N_MODES)] for r in range(2 * N_MODES)]
    for u, v, sign in ((i, j, 1), (N_MODES + i, N_MODES + j, -1)):
        mat[u][u] = mat[v][v] = c
        mat[u][v] = mat[v][u] = sign * sh
    return mat


def _transform(x: Fraction, y: Fraction) -> list:
    return _matmul(_matmul(_squeezer(2, 3, x), _squeezer(0, 1, x)), _squeezer(1, 2, y))


def _omega() -> list:
    n = N_MODES
    return [
        [Fraction((c == r + n) - (r == c + n)) for c in range(2 * n)]
        for r in range(2 * n)
    ]


@pytest.mark.parametrize("x, y", POINTS)
def test_transform_is_symplectic_and_reductions_match_closed_forms(x, y):
    s = _transform(x, y)
    omega = _omega()
    assert _matmul(_matmul(s, omega), _transpose(s)) == omega
    sigma = _matmul(s, _transpose(s))
    cosh_a, sinh_a = _cosh_sinh(x)
    cosh_2s, _ = _cosh_sinh(y * y)
    m_outer = cosh_a ** 2 + cosh_2s * sinh_a ** 2  # probes 1 and 4
    m_middle = sinh_a ** 2 + cosh_2s * cosh_a ** 2  # probes 2 and 3
    for mode, m in zip(range(N_MODES), (m_outer, m_middle, m_middle, m_outer)):
        assert _det(_block(sigma, [mode])) == m ** 2
    assert _det(_block(sigma, [0, 1])) == cosh_2s ** 2


@pytest.mark.parametrize("x, y", POINTS)
def test_float_transform_entries_match_the_exact_transform(x, y):
    a, s = math.log(x), math.log(y)
    entries = _transform_entries(a, s)
    exact = [entry for row in _transform(x, y) for entry in row]
    bound = ENTRY_REL_TOL * (a + s + 4.0) * 2.0 ** -52
    for k, (value, want) in enumerate(zip(entries, exact)):
        if want == 0:
            # exact zeros stay +0.0, as in the product of the three squeezers
            assert (value, math.copysign(1.0, value)) == (0.0, 1.0), k
        else:
            assert abs(Fraction(value) - want) <= bound * abs(want), k


# the module's points, then x, y in {5/4, 6/4, ..., 11/4}: both sides of the
# middle-pair separability threshold
GRID = [Fraction(k, 4) for k in range(5, 12)]
VERDICT_POINTS = POINTS + [
    pytest.param(x, y, id=f"grid-x={x},y={y}") for x, y in itertools.product(GRID, GRID)
]
# points outside closed_forms' float64 domain, by (x, y)
CLOSED_FORM_RAISES = {
    (Fraction(1), Fraction(2) ** 64): (ArithmeticError, "rounds to 1"),
    (Fraction(1), Fraction(2) ** 200): (ArithmeticError, "rounds to 1"),
    (Fraction(2) ** 64, Fraction(2) ** 200): (OverflowError, None),
    (Fraction(2) ** 200, Fraction(2) ** 64): (OverflowError, None),
    (Fraction(2) ** 200, Fraction(2) ** 200): (OverflowError, None),
}


# closed one-vs-rest contangle against arccosh^2 sqrt(det sigma_k) =
# asinh^2 sqrt(det sigma_k - 1) from the exact determinant; the 92 nonzero
# values measure at most 2.0e-15, while the outer and middle m differ by at
# least a relative 2.6e-8 on these points
ONE_VS_REST_REL_TOL = 1e-13


@pytest.mark.parametrize("x, y", [point for point in POINTS if point.values not in CLOSED_FORM_RAISES])
def test_one_vs_rest_contangle_is_arccosh_squared_of_the_exact_one_mode_determinant(x, y):
    s = _transform(x, y)
    sigma = _matmul(s, _transpose(s))
    closed = closed_forms(SqueezingParams(math.log(x), math.log(y))).one_vs_rest_contangle
    for probe in range(1, N_MODES + 1):
        exact = math.asinh(math.sqrt(float(_det(_block(sigma, [probe - 1])) - 1))) ** 2
        assert abs(closed[probe] - exact) <= ONE_VS_REST_REL_TOL * exact, probe


def _pair_invariants(s: list, pair: tuple[int, int]) -> tuple[Fraction, Fraction]:
    """(D, delta): the determinant and seralian of the partially transposed block of a pair
    (1-based modes i < j) of sigma = S S^T, from the exact transform S."""
    # the block from the rows of S for the pair's modes, in qqpp order
    # (q_i, q_j, p_i, p_j), with mode j's p row and column negated
    i, j = pair[0] - 1, pair[1] - 1
    rows = [s[k] for k in (i, j, i + N_MODES, j + N_MODES)]
    flip = (1, 1, 1, -1)
    block = [
        [fi * fj * sum(u * v for u, v in zip(ri, rj)) for rj, fj in zip(rows, flip)]
        for ri, fi in zip(rows, flip)
    ]

    def det(r: tuple, c: tuple) -> Fraction:
        return _det([[block[i][j] for j in c] for i in r])

    mode_i, mode_j = (0, 2), (1, 3)
    return _det(block), det(mode_i, mode_i) + det(mode_j, mode_j) + 2 * det(mode_i, mode_j)


def _separable(s: list, pair: tuple[int, int]) -> bool:
    # the smallest PT symplectic eigenvalue squared is (delta - sqrt(delta^2 - 4 D)) / 2,
    # which is at least 1 iff both hold
    det, delta = _pair_invariants(s, pair)
    return 1 - delta + det >= 0 and delta >= 2


@pytest.mark.parametrize("x, y", VERDICT_POINTS)
def test_middle_pair_ppt_verdict_matches_the_closed_form(x, y):
    params = SqueezingParams(math.log(x), math.log(y))
    if (x, y) in CLOSED_FORM_RAISES:
        error, message = CLOSED_FORM_RAISES[x, y]
        with pytest.raises(error, match=message):
            closed_forms(params)
        return
    assert _separable(_transform(x, y), (2, 3)) == (closed_forms(params).pairwise_contangle[(2, 3)] == 0.0)


@pytest.mark.parametrize("x, y", [point for point in VERDICT_POINTS if point.values not in CLOSED_FORM_RAISES])
def test_every_pair_ppt_verdict_matches_the_closed_forms(x, y):
    s = _transform(x, y)
    closed = closed_forms(SqueezingParams(math.log(x), math.log(y))).pairwise_contangle
    assert {pair: _separable(s, pair) for pair in PAIRS} == {pair: closed[pair] == 0.0 for pair in PAIRS}


def _exact_m_23(x: Fraction, y: Fraction) -> Fraction:
    # contangle._m_23's formula, each of cosh 2a, cosh s, cosh 2s, sinh 2s and e^2s rational
    cosh_a, sinh_a = _cosh_sinh(x)
    cosh_2a, _ = _cosh_sinh(x * x)
    cosh_s, _ = _cosh_sinh(y)
    cosh_2s, sinh_2s = _cosh_sinh(y * y)
    num = -1 + 2 * cosh_2a ** 2 * cosh_s ** 2 + 3 * cosh_2s - 4 * sinh_a ** 2 * sinh_2s
    return num / (4 * (cosh_a ** 2 + y * y * sinh_a ** 2))


# the verdict points inside closed_forms' domain where the middle pair is entangled
ENTANGLED_POINTS = [
    point for point in VERDICT_POINTS
    if point.values not in CLOSED_FORM_RAISES and not _separable(_transform(*point.values), (2, 3))
]
# float _m_23 against the exact value, in units of the exact value's float64 ulp;
# the 33 points measure at most 3.4
M_23_ULPS = 8


@pytest.mark.parametrize("x, y", ENTANGLED_POINTS)
def test_m_23_makes_the_smaller_root_of_the_middle_pair_polynomial(x, y):
    # nu~^2, the squared smallest PT symplectic eigenvalue of the {2, 3} block,
    # is the smaller root of z^2 - delta z + D; m_23 is right iff it gives that root
    det, delta = _pair_invariants(_transform(x, y), (2, 3))
    m = _exact_m_23(x, y)
    if x == 1:
        # at a = 0 the pair is a pure two-mode squeezed state, D = 1, and z is 0/0:
        # m = cosh 2r and nu~^2 = e^-4r, so delta = 2 cosh 4r = 4 m^2 - 2
        assert (det, delta) == (1, 4 * m ** 2 - 2)
    else:
        z = (det - 1) / (delta - 4 * m ** 2 + 2)
        assert z * z - delta * z + det == 0
        assert 2 * z <= delta
    value = _m_23(a_terms(math.log(x)), s_terms(math.log(y)))
    assert abs(Fraction(value) - m) <= M_23_ULPS * math.ulp(float(m))
