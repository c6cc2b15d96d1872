"""Contangle (squared log-negativity) closed forms for the four-mode family.

The four-mode states treated here are built from two squeezing degrees
(a, s); see four_mode.build_state for the construction.  For every
bipartition of interest the contangle reduces to g[m^2] where

    g[x] = arcsinh^2(sqrt(x - 1)),   x >= 1,

and m is the square root of the determinant of the reduced one-mode
covariance matrix of the relevant pure-state decomposition.  Mode labels
in this module are the 1-based labels 1..4 of the family definition:
modes 1, 2 form the first squeezed pair, modes 3, 4 the second, and the
middle pair 2, 3 carries the interpair squeezing.

Natural logarithms throughout, so the pair contangles come out as
4a^2 and the pair-block contangle as 4s^2 in squared-nat units.

closed_forms(params) is the one way in: it returns every statistic of
one point as a ClosedForms record.  The module imports only the standard
library, so the closed forms share no code with the spectral route
(gaussian, four_mode) they are checked against.
"""
from __future__ import annotations

import math
from collections import namedtuple

M_CLAMP_TOL = 1e-9
MONOGAMY_TOL = 1e-9

PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
PROBES = (1, 2, 3, 4)
# contangle of the cross pairs (1, 3), (1, 4) and (2, 4), separable for every (a, s)
SEPARABLE_CONTANGLE = 0.0


class SqueezingParams(namedtuple("SqueezingParams", "a s")):
    """Squeezing degrees of the four-mode family: pair strength a, interpair s."""

    __slots__ = ()

    def __new__(cls, a: float, s: float) -> SqueezingParams:
        for name, value in (("a", a), ("s", s)):
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"squeezing degree {name} must be a finite number")
            if value < 0:
                raise ValueError(f"squeezing degree {name} must be non-negative, got {value}")
        return super().__new__(cls, a, s)


ClosedForms = namedtuple(
    "ClosedForms",
    "params pairwise_contangle one_vs_rest_contangle interpair_contangle probe1_slack "
    "monogamy_slack residual tripartite_bound strong_monogamy_ok",
)
ClosedForms.__doc__ = """Every closed-form contangle statistic of one four-mode state.

Filled by closed_forms; params is the point's SqueezingParams.  Pair keys
are sorted 1-based tuples; probe keys are 1-based labels.  probe1_slack
is g[m_{1|rest}^2] - tau_{1|2}, monogamy_slack the minimum sharing slack
over the inequivalent probes, and residual the probe-1 slack clamped at 0.
"""


# the closed-form terms that depend on a alone and on s alone (a_terms, s_terms)
ATerms = namedtuple("ATerms", "a cosh cosh_sq sinh_sq tau_pair")
STerms = namedtuple("STerms", "s cosh_2s sinh_2s cosh_sq tanh threshold tau_pairblock")


def g_function(x: float) -> float:
    """g[x] = arcsinh^2(sqrt(x - 1)); monotone, g[1] = 0.

    Every caller passes m^2 with m >= 1, so an argument below 1 is
    rejected as unphysical; a non-finite one is an overflow upstream.
    """
    if 1.0 <= x < math.inf:  # the common case first; NaN and ±inf fall through to isfinite
        return math.asinh(math.sqrt(x - 1.0)) ** 2
    if not math.isfinite(x):
        raise OverflowError("g_function argument must be finite")
    raise ValueError(f"g_function argument must be >= 1, got {x}")


def separability_threshold(s: float) -> float:
    """Pair-strength a above which the middle pair 2, 3 turns separable."""
    return math.asinh(math.sqrt(math.tanh(s)))


def a_terms(a: float) -> ATerms:
    """Terms of pair degree a; cosh(a) ** 2, every point's first operation, comes first."""
    cosh = math.cosh(a)
    return ATerms(a, cosh, cosh ** 2, math.sinh(a) ** 2, _squeezer_contangle(a))


def s_terms(s: float) -> STerms:
    """Terms of interpair degree s; cosh(2s), every point's second operation, comes first.

    cosh(2a) and exp(2s) stay in _m_23, their only reader: hoisted, they would
    overflow from a = 177.8 and s = 354.9, ahead of those points' own first error."""
    return STerms(s, math.cosh(2 * s), math.sinh(2 * s), math.cosh(s) ** 2, math.tanh(s),
                  separability_threshold(s), _squeezer_contangle(s))


def _squeezer_contangle(r: float) -> float:
    # a cut across a two-mode squeezer of degree r carries 4 r^2
    return 4.0 * r * r


def _clamp_m(m: float) -> float:
    # determinant square roots in [1 - tol, 1) count as exactly 1
    return 1.0 if 1.0 - M_CLAMP_TOL <= m < 1.0 else m


def _m_23(at: ATerms, st: STerms) -> float:
    # middle-pair m below the separability threshold, joining the separable m = 1 continuously at it
    num = -1.0 + 2.0 * math.cosh(2 * at.a) ** 2 * st.cosh_sq + 3.0 * st.cosh_2s
    num -= 4.0 * at.sinh_sq * st.sinh_2s
    return _clamp_m(num / (4.0 * (at.cosh_sq + math.exp(2 * st.s) * at.sinh_sq)))


def _bound_m_3_vs_12(a: float, s: float, cosh_a: float, tanh_s: float) -> float:
    ratio = (tanh_s / cosh_a) ** 2
    if ratio == 1.0:
        raise ArithmeticError(f"tanh(s)/cosh(a) rounds to 1 in float64 at a={a}, s={s}")
    return (1.0 + ratio) / (1.0 - ratio)


def bounding_squeezing_degree(params: SqueezingParams) -> float:
    """Interpair degree t = arccosh(max(1, m_bound_{3|(12)})) / 2 of the bounding state.

    four_mode.bounding_tripartite_state squeezes modes 2, 3 by t after
    the pair squeezer of degree a on modes 1, 2.
    """
    a, s = params.a, params.s
    m_3 = _bound_m_3_vs_12(a, s, math.cosh(a), math.tanh(s))
    return 0.5 * math.acosh(max(1.0, m_3))


def point_forms(at: ATerms, st: STerms) -> tuple:
    """(tau_1_rest, tau_2_rest, tau_23, then the ClosedForms fields from
    probe1_slack on) at the point (at.a, st.s), from the terms of its axes.

    Every report, sweep and verify point runs through here, so the body is
    flat: the probes' one-mode m are written out, and at or above the
    separability threshold, where m_23 = 1, tau_23 is g[1] = +0.0 without
    a call.  The common path calls no helper but g_function and
    _bound_m_3_vs_12, which bounding_squeezing_degree shares.  The
    evaluation order still fixes which error a point outside the float64
    domain raises first.
    """
    a, cosh_a, cosh_sq, sinh_sq, tau_12 = at
    s, cosh_2s, _, _, tanh_s, threshold, _ = st
    m = cosh_sq + cosh_2s * sinh_sq  # sqrt-det of the one-mode reduction of outer probes 1, 4
    tau_1_rest = g_function(m * m)
    probe1 = tau_1_rest - tau_12
    if probe1 < -MONOGAMY_TOL:
        raise ArithmeticError(f"residual contangle {probe1} below tolerance at a={a}, s={s}")
    m_3 = _bound_m_3_vs_12(a, s, cosh_a, tanh_s)
    m_1 = cosh_sq + m_3 * sinh_sq
    term1 = g_function(m_1 ** 2) - tau_12
    if a >= threshold:
        tau_23 = 0.0
    else:
        m = _m_23(at, st)
        tau_23 = g_function(m * m)
    # min and max spelled out, picking the operand the builtins pick
    term3 = g_function(m_3 ** 2) - tau_23
    bound = term3 if term3 < term1 else term1
    bound = bound if bound > 0.0 else 0.0
    m = sinh_sq + cosh_2s * cosh_sq  # and of the middle probes 2, 3
    tau_2_rest = g_function(m * m)
    slack = tau_2_rest - tau_12 - tau_23
    slack = slack if slack < probe1 else probe1
    if slack < -MONOGAMY_TOL:
        raise ArithmeticError(f"monogamy violated ({slack}) at a={a}, s={s}")
    residual = probe1 if probe1 > 0.0 else 0.0
    strong = residual >= bound - MONOGAMY_TOL  # bound is clamped to >= 0 above
    return tau_1_rest, tau_2_rest, tau_23, probe1, slack, residual, bound, strong


def closed_forms(params: SqueezingParams) -> ClosedForms:
    """All closed-form statistics of gamma(a, s), each computed once.

    Monogamy: probe 1 keeps g[m_{1|rest}^2] - tau_{1|2}; probe 2 keeps
    g[m_{2|rest}^2] - tau_{1|2} - tau_{2|3}.  Probes 4 and 3 duplicate
    them by the mode-exchange symmetry.  Both slacks must stay above
    -MONOGAMY_TOL, else ArithmeticError, so monogamy holds on every
    record that exists; the probe-1 branch attains the minimum throughout
    the sampled parameter range.  The residual is the probe-1 slack with
    float cancellation near zero clamped to 0; it is strictly positive
    inside the quadrant and zero in exact terms on both axes.  In float64
    it is exactly 0 at a = 0, but at s = 0 it keeps rounding noise (up to
    3.6e-15 for a in [0, 2.5]) until ROADMAP item 6's cancellation-free form.

    The tripartite bound caps the genuine tripartite contangle of modes
    1, 2, 3: min of g[m_bound_{1|(23)}^2] - tau_{1|2} and
    g[m_bound_{3|(12)}^2] - tau_{2|3}, where the bound-m values are
    sqrt-dets of the pure three-mode state returned by
    four_mode.bounding_tripartite_state.  Non-negative, zero at a = 0 and
    at s = 0; along each fixed-s row it rises to a single interior peak
    and then decays for large a.

    Strong monogamy holds iff residual >= bound (never negative), with
    MONOGAMY_TOL slack.  It certifies that the residual entanglement not
    stored in pairs exceeds everything the three-mode reductions could
    account for, i.e. genuine four-partite entanglement bracketed from
    below.
    point_forms computes every value, from the terms of a and of s.
    """
    at, st = a_terms(params.a), s_terms(params.s)
    tau_1_rest, tau_2_rest, tau_23, *tail = point_forms(at, st)
    tau, zero = at.tau_pair, SEPARABLE_CONTANGLE
    pairwise = dict(zip(PAIRS, (tau, zero, zero, tau_23, zero, tau)))
    one_vs_rest = {1: tau_1_rest, 2: tau_2_rest, 3: tau_2_rest, 4: tau_1_rest}
    return ClosedForms(params, pairwise, one_vs_rest, st.tau_pairblock, *tail)
