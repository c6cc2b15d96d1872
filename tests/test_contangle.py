import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promiscuity import gaussian
from promiscuity.config import GridConfig
from promiscuity.contangle import (
    PAIRS,
    SqueezingParams,
    a_terms,
    closed_forms,
    g_function,
    point_forms,
    s_terms,
    separability_threshold,
)
from promiscuity.four_mode import bounding_tripartite_state

squeezings = st.floats(min_value=0.0, max_value=2.5, allow_nan=False)

# frozen against independent evaluations of the closed forms
THRESHOLD_AT_S1 = 0.788432006034854
M23_AT_03_1 = 2.198292453564688
M1_REST_BENCH = 22.590990442247836
M2_REST_BENCH = 25.353186133331466
RESIDUAL_BENCH = 5.517686046189343
BOUND_BENCH = 0.4511305571890842
BOUND_AT_5_1 = 0.0004213213158295049
BOUND_AT_01_1 = 0.05353713085552628


def test_squeezing_params_validation():
    SqueezingParams(0.0, 0.0)
    with pytest.raises(ValueError):
        SqueezingParams(-0.1, 1.0)
    with pytest.raises(ValueError):
        SqueezingParams(1.0, float("nan"))
    with pytest.raises(ValueError):
        SqueezingParams(float("inf"), 1.0)


@pytest.mark.parametrize(
    "record, field",
    [(SqueezingParams(1.5, 1.0), "a"), (GridConfig(), "density"), (closed_forms(SqueezingParams(1.5, 1.0)), "residual")],
    ids=["squeezing_params", "grid_config", "closed_forms"],
)
def test_records_refuse_field_assignment(record, field):
    # a checked record stays checked: no field can be rebound past its constructor
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0.0)
    assert getattr(record, field) == before


def test_g_function_anchors():
    assert g_function(1.0) == 0.0
    for a in (0.2, 0.9, 1.7):
        # arcsinh^2 sqrt(cosh^2(2a) - 1) = (2a)^2
        assert g_function(math.cosh(2 * a) ** 2) == pytest.approx(4 * a * a, abs=1e-12)


def test_g_function_clamp_band():
    # no band below 1 is clamped: every caller passes m^2 with m >= 1
    assert g_function(1.0) == 0.0 and math.copysign(1.0, g_function(1.0)) == 1.0
    for x in (math.nextafter(1.0, 0.0), 1.0 - 5e-10, 1.0 - 1e-9, 1.0 - 1e-6, 0.5, 0.0):
        with pytest.raises(ValueError, match="argument must be >= 1"):
            g_function(x)
    # a non-finite argument is an overflow upstream, not a bad argument
    with pytest.raises(OverflowError, match="finite"):
        g_function(math.inf)
    # NaN fails the fast path's range test and still ends in the finite check
    with pytest.raises(OverflowError, match="finite"):
        g_function(math.nan)


def test_separability_threshold_value():
    assert separability_threshold(1.0) == pytest.approx(THRESHOLD_AT_S1, abs=1e-15)
    assert separability_threshold(0.0) == 0.0
    # monotone in s
    assert separability_threshold(2.0) > separability_threshold(0.5)


@pytest.mark.parametrize("pair", [(1, 2), (3, 4)])
def test_squeezed_pairs_keep_their_contangle(pair):
    tau = closed_forms(SqueezingParams(0.85, 1.4)).pairwise_contangle[pair]
    assert tau == pytest.approx(g_function(math.cosh(1.7) ** 2), abs=1e-12)
    assert tau == 4 * 0.85**2


@pytest.mark.parametrize("pair", [(1, 3), (2, 4), (1, 4)])
def test_promiscuity_does_not_leak_into_separable_pairs(pair):
    assert closed_forms(SqueezingParams(1.2, 0.9)).pairwise_contangle[pair] == 0.0


def test_middle_pair_below_threshold():
    tau = closed_forms(SqueezingParams(0.3, 1.0)).pairwise_contangle[(2, 3)]
    assert tau == pytest.approx(g_function(M23_AT_03_1**2), abs=1e-12)
    assert tau > 0


def test_middle_pair_above_threshold_is_separable():
    assert closed_forms(SqueezingParams(1.0, 1.0)).pairwise_contangle[(2, 3)] == 0.0


def test_middle_pair_at_zero_arm_squeezing():
    # the pair reduces to a plain two-mode squeezed state
    s = 0.7
    tau = closed_forms(SqueezingParams(0.0, s)).pairwise_contangle[(2, 3)]
    assert tau == pytest.approx(g_function(math.cosh(2 * s) ** 2), abs=1e-12)


def test_middle_pair_joins_continuously_at_threshold():
    s = 1.0
    thr = separability_threshold(s)
    below = closed_forms(SqueezingParams(thr - 1e-8, s)).pairwise_contangle[(2, 3)]
    above = closed_forms(SqueezingParams(thr + 1e-8, s)).pairwise_contangle[(2, 3)]
    assert above == 0.0
    # m within 1e-6 of 1, as g is monotone
    assert 0.0 <= below <= g_function((1.0 + 1e-6) ** 2)


def test_one_vs_rest_m_benchmark_values():
    rest = closed_forms(SqueezingParams(1.5, 1.0)).one_vs_rest_contangle
    assert rest[1] == pytest.approx(g_function(M1_REST_BENCH**2), abs=1e-12)
    assert rest[2] == pytest.approx(g_function(M2_REST_BENCH**2), abs=1e-12)
    # mirror symmetry of the chain: 1 <-> 4 and 2 <-> 3
    assert rest[4] == rest[1]
    assert rest[3] == rest[2]


def test_one_vs_rest_contangle_spectral_cross_check():
    from promiscuity import four_mode

    params = SqueezingParams(0.9, 1.3)
    transform = four_mode.build_transform([params])
    closed = closed_forms(params).one_vs_rest_contangle
    for probe in (1, 2, 3, 4):
        part = gaussian.ModePartition(
            frozenset({probe - 1}), frozenset({0, 1, 2, 3}) - {probe - 1}
        )
        spectral = gaussian.log_negativity(transform, part)[0] ** 2
        assert closed[probe] == pytest.approx(spectral, abs=1e-9)


def test_interpair_is_four_s_squared():
    assert closed_forms(SqueezingParams(1.7, 0.6)).interpair_contangle == 4 * 0.6**2
    assert closed_forms(SqueezingParams(0.0, 0.0)).interpair_contangle == 0.0


def _residual(a, s):
    return closed_forms(SqueezingParams(a, s)).residual


def _bound(a, s):
    return closed_forms(SqueezingParams(a, s)).tripartite_bound


def test_residual_benchmark_and_edges():
    assert _residual(1.5, 1.0) == pytest.approx(RESIDUAL_BENCH, abs=1e-11)
    assert _residual(0.0, 1.3) == pytest.approx(0.0, abs=1e-12)
    assert _residual(1.3, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_residual_diverges_with_arm_squeezing():
    growth = _residual(6.0, 1.0) - _residual(3.0, 1.0)
    assert growth == pytest.approx(10.450030536459806, abs=1e-9)
    assert growth > 10.0


def test_monogamy_slack_matches_probe_one_branch():
    for a, s in [(0.0, 0.0), (0.4, 1.1), (1.5, 1.0), (2.5, 2.5)]:
        forms = closed_forms(SqueezingParams(a, s))
        assert forms.monogamy_slack >= 0.0
        assert forms.monogamy_slack == pytest.approx(forms.residual, abs=1e-12)


def test_tripartite_bound_values():
    assert _bound(1.5, 1.0) == pytest.approx(BOUND_BENCH, abs=1e-12)
    assert _bound(5.0, 1.0) == pytest.approx(BOUND_AT_5_1, abs=1e-12)
    assert _bound(5.0, 1.0) < 0.01


def test_tripartite_bound_vanishes_without_arm_squeezing():
    # probe mode decouples at a = 0, so the capped quantity is exactly zero,
    # and so is the residual
    for s in (0.0, 0.5, 1.0, 2.5):
        assert _bound(0.0, s) == 0.0
        assert _residual(0.0, s) == 0.0


def test_tripartite_bound_rises_to_an_interior_peak():
    # the bound is tight at a = 0 and must climb before the large-a decay;
    # this pins the hump so the trend checks stay honest about it
    assert _bound(0.1, 1.0) == pytest.approx(BOUND_AT_01_1, abs=1e-12)
    row = [_bound(0.1 * k, 1.0) for k in range(26)]
    peak = max(range(26), key=row.__getitem__)
    assert 0 < peak < 25
    assert all(row[k + 1] >= row[k] - 1e-12 for k in range(peak))
    assert all(row[k + 1] <= row[k] + 1e-12 for k in range(peak, 25))


def test_bounding_state_is_physical_three_mode_pure():
    sigma_p = bounding_tripartite_state([SqueezingParams(1.5, 1.0)])
    assert sigma_p.n_modes == 3
    assert gaussian.symplectic_eigenvalues(sigma_p).min() >= 1 - 1e-9
    assert sigma_p.is_pure()


def test_bounding_state_majorized_by_reduction():
    from promiscuity import four_mode

    for a, s in [(0.5, 0.5), (1.5, 1.0), (2.0, 2.0)]:
        params = SqueezingParams(a, s)
        reduced = gaussian.reduce(four_mode.build_state([params]), {0, 1, 2})
        diff = reduced.data - bounding_tripartite_state([params]).data
        assert float(np.linalg.eigvalsh(diff).min()) >= -1e-8


def test_bounding_state_probe_three_matches_closed_form():
    a, s = 1.2, 0.8
    sigma_p = bounding_tripartite_state([SqueezingParams(a, s)])
    ratio = (math.tanh(s) / math.cosh(a)) ** 2
    m3_closed = (1 + ratio) / (1 - ratio)
    reduced = gaussian.reduce(sigma_p, {2})
    m3_spectral = math.sqrt(float(np.linalg.det(reduced.data[0])))
    assert m3_spectral == pytest.approx(m3_closed, abs=1e-10)


def test_strong_monogamy_benchmark():
    outcome = closed_forms(SqueezingParams(1.5, 1.0))
    assert outcome.strong_monogamy_ok
    assert outcome.residual == pytest.approx(5.52, abs=0.05)
    assert outcome.tripartite_bound == pytest.approx(0.45, abs=0.01)


@given(a=squeezings, s=squeezings)
@settings(max_examples=30, deadline=None)
def test_closed_forms_match_primitives(a, s):
    params = SqueezingParams(a, s)
    forms = closed_forms(params)
    assert forms.params == params
    # the m-formulas of the family, written out: the middle pair is
    # separable (m = 1) from the threshold on, and the outer probes 1, 4
    # and middle probes 2, 3 each share one one-mode sqrt-det
    if a >= separability_threshold(s):
        m_23 = 1.0
    else:
        numerator = (
            -1 + 2 * math.cosh(2 * a) ** 2 * math.cosh(s) ** 2 + 3 * math.cosh(2 * s)
            - 4 * math.sinh(a) ** 2 * math.sinh(2 * s)
        )
        m_23 = numerator / (4 * (math.cosh(a) ** 2 + math.exp(2 * s) * math.sinh(a) ** 2))
    m_outer = math.cosh(a) ** 2 + math.cosh(2 * s) * math.sinh(a) ** 2
    m_middle = math.sinh(a) ** 2 + math.cosh(2 * s) * math.cosh(a) ** 2

    def close(m):
        return pytest.approx(g_function(m * m), rel=1e-12, abs=1e-12)

    squeezed = 4 * a * a
    assert forms.pairwise_contangle == {
        (1, 2): squeezed, (1, 3): 0.0, (1, 4): 0.0, (2, 3): close(m_23), (2, 4): 0.0, (3, 4): squeezed,
    }
    outer, middle = close(m_outer), close(m_middle)
    assert forms.one_vs_rest_contangle == {1: outer, 2: middle, 3: middle, 4: outer}
    assert forms.interpair_contangle == 4 * s * s
    assert list(forms.pairwise_contangle) == list(PAIRS)


@st.composite
def sweep_points(draw):
    # on either axis, anywhere, or within a few ulps of the middle-pair threshold
    s = draw(st.one_of(st.just(0.0), squeezings))
    where = draw(st.sampled_from(("axis", "anywhere", "threshold")))
    if where == "axis":
        return 0.0, s
    if where == "anywhere":
        return draw(squeezings), s
    threshold = separability_threshold(s)
    return max(0.0, threshold + draw(st.integers(-3, 3)) * math.ulp(threshold)), s


@given(points=st.lists(sweep_points(), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_point_forms_on_shared_axis_terms_equal_closed_forms(points):
    # as in the sweep: the terms of each a and each s are built once and
    # shared by every point of the cross product
    rows = [a_terms(a) for a, _ in points]
    columns = [s_terms(s) for _, s in points]
    for row in rows:
        for column in columns:
            forms = closed_forms(SqueezingParams(row.a, column.s))
            assert point_forms(row, column) == (
                forms.one_vs_rest_contangle[1],
                forms.one_vs_rest_contangle[2],
                forms.pairwise_contangle[(2, 3)],
                forms.probe1_slack,
                forms.monogamy_slack,
                forms.residual,
                forms.tripartite_bound,
                forms.strong_monogamy_ok,
            )
            assert row.tau_pair == forms.pairwise_contangle[(1, 2)] == forms.pairwise_contangle[(3, 4)]
            assert column.tau_pairblock == forms.interpair_contangle


def test_pairs_constant_is_the_six_unordered_pairs():
    assert PAIRS == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


@given(a=squeezings, s=squeezings)
@settings(max_examples=60, deadline=None)
def test_monogamy_holds_everywhere(a, s):
    outcome = closed_forms(SqueezingParams(a, s))
    # exact cancellation at s=0 leaves ulp-scale float residue
    assert outcome.monogamy_slack >= -1e-12
    assert outcome.tripartite_bound >= 0.0
    assert outcome.strong_monogamy_ok
    assert outcome.residual >= outcome.tripartite_bound - 1e-9


@given(a=squeezings, s=squeezings)
@settings(max_examples=60, deadline=None)
def test_pairwise_m_never_below_one(a, s):
    # g refuses m^2 below 1 - M_CLAMP_TOL and the kernel clamps m up to 1
    # within it, so every pair contangle computed and non-negative means m >= 1
    pairwise = closed_forms(SqueezingParams(a, s)).pairwise_contangle
    assert all(tau >= 0.0 for tau in pairwise.values())


@given(s=st.floats(min_value=0.01, max_value=2.5, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_threshold_splits_middle_pair(s):
    thr = separability_threshold(s)
    entangled = closed_forms(SqueezingParams(max(0.0, thr - 0.05), s)).pairwise_contangle[(2, 3)]
    separable = closed_forms(SqueezingParams(thr + 0.05, s)).pairwise_contangle[(2, 3)]
    assert entangled > 0.0
    assert separable == 0.0 and math.copysign(1.0, separable) == 1.0
