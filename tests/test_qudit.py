import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promiscuity.qubits import concurrence, ghz3, negativity, one_vs_rest_tangle_qubit, reduced_density, vn_entropy, w3
from promiscuity.qudit import n_copies, nongaussianity, squashed_bounds, tangle_report

# frozen: binary entropy of the W single-qubit reduction, log2(3) - 2/3
W_ENTROPY = 0.9182958340544894
# frozen: trace-norm negativity of the W two-qubit reduction, (sqrt(5)-1)/3
W_PAIR_NEGATIVITY = 0.4120226591665966
# frozen: exact rational value of the d=4 non-Gaussianity, 1/2 + 1/48 - 28/729
DELTA_4 = float(Fraction(5627, 11664))

valid_dims = st.integers(min_value=1, max_value=10).map(lambda k: 4 * k)
THREE_QUBITS = (2, 2, 2)


def test_ghz_amplitudes():
    amp = ghz3()
    assert amp.shape == (8,)
    r = 1 / math.sqrt(2)
    assert amp[0] == pytest.approx(r, abs=1e-15)
    assert amp[7] == pytest.approx(r, abs=1e-15)
    assert np.all(amp[1:7] == 0)


def test_w_amplitudes():
    amp = w3()
    r = 1 / math.sqrt(3)
    for idx in (1, 2, 4):
        assert amp[idx] == pytest.approx(r, abs=1e-15)
    for idx in (0, 3, 5, 6, 7):
        assert amp[idx] == 0


@pytest.mark.parametrize("d", [2, 6, 0, -4, 10])
def test_dimension_must_be_multiple_of_four(d):
    with pytest.raises(ValueError, match="multiple of 4"):
        tangle_report(d)


def test_dimension_must_be_integral():
    with pytest.raises(ValueError):
        tangle_report(4.0)


def test_copy_counts_and_party_layout():
    assert n_copies(4) == (1, 1)
    assert n_copies(40) == (10, 10)


@pytest.mark.parametrize("d", [4, 8])
def test_materialized_party_entropy_is_additive_over_copies(d):
    # GHZ^(d/4) x W^(d/4) with qubit 3m + k of copy m held by party k: each
    # party's reduced entropy must equal the per-copy sum squashed_bounds uses
    ghz_copies, w_copies = n_copies(d)
    amps = np.ones(1, dtype=complex)
    for copy in [ghz3()] * ghz_copies + [w3()] * w_copies:
        amps = np.kron(amps, copy)
    n_qubits = 3 * (ghz_copies + w_copies)
    expected = squashed_bounds(d).one_vs_rest
    for party in range(3):
        entropy = vn_entropy(reduced_density(amps, (2,) * n_qubits, range(party, n_qubits, 3)))
        assert entropy == pytest.approx(expected, abs=1e-12)


def _family_state(d: int) -> tuple[np.ndarray, tuple[int, int, int]]:
    """The d-family member as three parties, with their dimensions: d/4 GHZ and d/4 W copies,
    party k holding qubit k of each."""
    ghz_copies, w_copies = n_copies(d)
    amps = np.ones(1, dtype=complex)
    for copy in [ghz3()] * ghz_copies + [w3()] * w_copies:
        amps = np.kron(amps, copy)
    n = ghz_copies + w_copies
    # qubit 3m + k (copy m, party k) moves to party-major position (k, m)
    party_major = amps.reshape((2,) * 3 * n).transpose([3 * m + k for k in range(3) for m in range(n)])
    return party_major.reshape(-1), (2**n,) * 3


@pytest.mark.parametrize("d", [4, 8, 12])
def test_family_state_party_entropy_is_the_squashed_one_vs_rest(d):
    # a pure state's one-party entropy is its squashed entanglement (Christandl & Winter 2004),
    # taken here from the assembled state, not from per-copy additivity
    entropy = vn_entropy(reduced_density(*_family_state(d), [0]))
    assert entropy == pytest.approx(squashed_bounds(d).one_vs_rest, abs=1e-12)


@pytest.mark.parametrize("d", [4, 8])
def test_family_state_pair_log_negativity_is_d_over_4_w_pairs(d):
    # log-negativity is additive on tensor products (Vidal & Werner 2002) and GHZ pairs carry none,
    # so the party-(1,2) value grows as d/4 W pairs; d = 12 would need a 4096x4096 reduction
    dim = 2 ** (d // 2)
    rho = reduced_density(*_family_state(d), [0, 1])
    w_pair = math.log2(1 + W_PAIR_NEGATIVITY)
    assert math.log2(1 + negativity(rho, dim, dim)) == pytest.approx((d / 4) * w_pair, abs=1e-12)


def test_reduced_density_of_ghz_and_w():
    ghz_one = reduced_density(ghz3(), THREE_QUBITS, [0])
    assert np.allclose(ghz_one, np.eye(2) / 2, atol=1e-15)
    w_one = reduced_density(w3(), THREE_QUBITS, [0])
    assert np.allclose(w_one, np.diag([2 / 3, 1 / 3]), atol=1e-15)


def test_entropies():
    assert vn_entropy(reduced_density(ghz3(), THREE_QUBITS, [0])) == pytest.approx(1.0, abs=1e-12)
    assert vn_entropy(reduced_density(w3(), THREE_QUBITS, [0])) == pytest.approx(W_ENTROPY, abs=1e-12)
    pure = np.diag([1.0, 0.0]).astype(complex)
    assert vn_entropy(pure) == 0.0


def test_concurrence_of_two_qubit_reductions():
    # W pairs keep concurrence 2/3; GHZ pairs are classically correlated only
    w_pair = reduced_density(w3(), THREE_QUBITS, [0, 1])
    assert concurrence(w_pair) == pytest.approx(2 / 3, abs=1e-12)
    ghz_pair = reduced_density(ghz3(), THREE_QUBITS, [0, 1])
    assert concurrence(ghz_pair) == pytest.approx(0.0, abs=1e-12)


def test_negativity_normalization_anchor():
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
    rho = reduced_density(bell, (2, 2), [0, 1])
    assert negativity(rho, 2, 2) == pytest.approx(1.0, abs=1e-12)
    w_pair = reduced_density(w3(), THREE_QUBITS, [0, 1])
    assert negativity(w_pair, 2, 2) == pytest.approx(W_PAIR_NEGATIVITY, abs=1e-12)


def test_one_vs_rest_tangles_per_copy():
    assert one_vs_rest_tangle_qubit(ghz3(), 0) == pytest.approx(1.0, abs=1e-12)
    assert one_vs_rest_tangle_qubit(w3(), 0) == pytest.approx(8 / 9, abs=1e-12)


@pytest.mark.parametrize("d", [4, 8, 12, 16, 20, 24, 28, 32, 36, 40])
def test_tangle_report_exact_rationals(d):
    report = tangle_report(d)
    assert report.three_tangle == Fraction(d, 4)
    assert report.pairwise_tangle == Fraction(d, 9)
    assert report.one_vs_rest_tangle == Fraction(17 * d, 36)
    assert report.monogamy_gap == Fraction(0)
    assert report.nongaussianity == pytest.approx(nongaussianity(d), abs=0)
    assert report.squashed.tripartite_lower == Fraction(d, 4)


def test_monogamy_decomposition_is_additive():
    # one-vs-rest = pairwise share (2 partners) + genuinely tripartite share
    d = 24
    report = tangle_report(d)
    assert report.one_vs_rest_tangle == 2 * report.pairwise_tangle + report.three_tangle


def test_nongaussianity_values():
    assert nongaussianity(4) == pytest.approx(DELTA_4, abs=1e-15)
    assert nongaussianity(4) == pytest.approx(0.48242, abs=1e-5)
    assert abs(nongaussianity(200) - 0.5) < 1e-10
    for d in range(4, 100, 4):
        assert nongaussianity(d) >= 0.48
        # the closed form creeps past 1/2 by ~1e-14 at large d; allow that
        assert nongaussianity(d) <= 0.5 + 1e-12


def test_nongaussianity_past_float_power_overflow():
    # d = 1460 was the first d whose 7^(d/4) factor overflowed a float
    q = 1460 // 4
    exact = Fraction(1, 2) + Fraction(1, 2) * Fraction(1, 24) ** q - Fraction(28, 729) ** q
    assert nongaussianity(1460) == float(exact) == 0.5


def test_nongaussianity_increases_with_dimension():
    values = [nongaussianity(d) for d in range(4, 100, 4)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1e-12


def test_squashed_bounds():
    for d in (4, 12, 40):
        bounds = squashed_bounds(d)
        assert bounds.one_vs_rest == pytest.approx((d / 4) * (1 + W_ENTROPY), abs=1e-10)
        assert bounds.tripartite_lower == Fraction(d, 4)
        assert bounds.pairwise_form == "omega*d/4"
        assert bounds.pairwise_witness == pytest.approx(W_PAIR_NEGATIVITY, abs=1e-12)
        assert bounds.pairwise_witness > 0.29


@pytest.mark.parametrize("d", [4, 36, 1456])
def test_squashed_bounds_read_the_exact_forms(d):
    # no float route in between: the report's H and witness are the closed forms, bit for bit
    bounds = squashed_bounds(d)
    assert bounds.one_vs_rest == (d / 4) * (1 + (math.log2(3) - 2 / 3))
    assert bounds.pairwise_witness == (math.sqrt(5) - 1) / 3


def test_squashed_one_vs_rest_slope():
    bounds = squashed_bounds(36)
    assert bounds.one_vs_rest / 36 == pytest.approx(0.47956, abs=1e-4)


@given(d=valid_dims)
@settings(max_examples=15, deadline=None)
def test_report_identities_hold_for_any_valid_dimension(d):
    report = tangle_report(d)
    assert report.d == d
    assert report.monogamy_gap == 0
    assert report.one_vs_rest_tangle == Fraction(17 * d, 36)


@given(
    amps=st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=8,
        max_size=8,
    ).filter(lambda v: sum(x * x for x in v) > 1e-6)
)
@settings(max_examples=30, deadline=None)
def test_probe_tangle_bounded_on_random_three_qubit_states(amps):
    psi = np.array(amps, dtype=complex) / math.sqrt(sum(x * x for x in amps))
    tangle = one_vs_rest_tangle_qubit(psi, 0)
    assert -1e-12 <= tangle <= 1.0 + 1e-12
    entropy = vn_entropy(reduced_density(psi, THREE_QUBITS, [0]))
    assert -1e-12 <= entropy <= 1.0 + 1e-12
