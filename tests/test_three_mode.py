"""The Gaussian half of the paper's three-party contrast.

Among three Gaussian modes, unlimited promiscuity is impossible: in the
symmetric pure three-mode state (the continuous-variable GHZ/W state of
van Loock & Braunstein, PRL 84, 3482 (2000)) the one-vs-rest contangle
grows without bound with the squeezing r, while each pair's contangle
stays below (ln 3)^2 / 4.  The qudit family, by contrast, carries d/9
per pair.  The closed forms live here, and the spectral route of
`gaussian` is checked against them.

The state is one q-squeezed and two p-squeezed vacua of degree r sent
through a tritter U, a real orthogonal matrix whose first column is
(1, 1, 1)/sqrt(3): S = (U + U) diag(e^r, e^-r, e^-r | e^-r, e^r, e^r) in
qqpp order.  Every mode then has local symplectic eigenvalue a with
a^2 = (5 + 4 cosh 4r) / 9, and every pair the smallest partially
transposed symplectic eigenvalue nu with
nu^2 = 2a^2 / (3a^2 - 1 + sqrt((9a^2 - 1)(a^2 - 1))), a form without
cancellation that tends to 1/sqrt(3).
"""
import math

import numpy as np
import pytest

from promiscuity.gaussian import (
    ModePartition,
    SymplecticTransform,
    log_negativity,
    partial_transpose,
    pure_state,
    symplectic_eigenvalues,
)

R = np.linspace(0.01, 3.0, 300)
PAIRS = ((0, 1), (0, 2), (1, 2))
TRITTER = np.column_stack([
    np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),
    np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0),
    np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0),
])
PAIR_CONTANGLE_LIMIT = math.log(3.0) ** 2 / 4


def three_mode_transform(r: np.ndarray) -> SymplecticTransform:
    """The transform of the symmetric pure three-mode state at each squeezing in r, as one stack."""
    grow, shrink = np.exp(r), np.exp(-r)
    squeezers = np.zeros((len(r), 6, 6))
    for k, factor in enumerate((grow, shrink, shrink, shrink, grow, grow)):
        squeezers[:, k, k] = factor
    mixer = np.zeros((6, 6))
    mixer[:3, :3] = mixer[3:, 3:] = TRITTER
    return SymplecticTransform(mixer @ squeezers)


def local_eigenvalue_squared(r: np.ndarray) -> np.ndarray:
    return (5.0 + 4.0 * np.cosh(4.0 * r)) / 9.0


def pair_pt_eigenvalue(r: np.ndarray) -> np.ndarray:
    a2 = local_eigenvalue_squared(r)
    return np.sqrt(2.0 * a2 / (3.0 * a2 - 1.0 + np.sqrt((9.0 * a2 - 1.0) * (a2 - 1.0))))


def one_vs_rest_contangle(r: np.ndarray) -> np.ndarray:
    # arccosh^2 a, with a^2 - 1 = (8/9) sinh^2 2r
    return np.arcsinh(2.0 * math.sqrt(2.0) / 3.0 * np.sinh(2.0 * r)) ** 2


@pytest.fixture(scope="module")
def spectral():
    """The spectral route on R: each pair's smallest partially transposed
    symplectic eigenvalue, and the squared log-negativity across 1|23."""
    transform = three_mode_transform(R)
    state = pure_state(transform)
    pair_nu = [symplectic_eigenvalues(partial_transpose(state, ModePartition({i}, {j})))[:, 0]
               for i, j in PAIRS]
    return pair_nu, log_negativity(transform, ModePartition({0}, {1, 2})) ** 2


def test_every_pair_has_the_closed_smallest_pt_eigenvalue(spectral):
    closed = pair_pt_eigenvalue(R)
    for pair, nu_min in zip(PAIRS, spectral[0]):
        assert np.abs(nu_min - closed).max() <= 1e-10, pair


def test_one_vs_rest_log_negativity_is_the_closed_form(spectral):
    assert np.abs(spectral[1] / one_vs_rest_contangle(R) - 1.0).max() <= 1e-12


def test_pair_contangle_rises_and_stays_bounded(spectral):
    for tau in (np.log(pair_pt_eigenvalue(R)) ** 2, *(np.log(nu) ** 2 for nu in spectral[0])):
        assert np.all(np.diff(tau) > 0.0)
        assert np.all(tau < PAIR_CONTANGLE_LIMIT)


def test_residual_contangle_rises(spectral):
    # tau_{1|23} - 2 tau_pair grows without bound while each pair stays bounded
    closed = one_vs_rest_contangle(R) - 2.0 * np.log(pair_pt_eigenvalue(R)) ** 2
    (nu, *_), one_vs_rest = spectral
    for residual in (closed, one_vs_rest - 2.0 * np.log(nu) ** 2):
        assert np.all(np.diff(residual) > 0.0)
