import inspect
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promiscuity import gaussian
from promiscuity.four_mode import _transform_entries
from promiscuity.gaussian import (
    CovarianceMatrix,
    ModePartition,
    SymplecticTransform,
    compose,
    log_negativity,
    partial_transpose,
    permute_modes,
    pure_state,
    reduce,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_squeezer,
)

squeezings = st.floats(min_value=0.0, max_value=2.5, allow_nan=False)


def vacuum(n_modes: int) -> CovarianceMatrix:
    return pure_state(SymplecticTransform(np.eye(2 * n_modes)))


def tmsv(r: float) -> CovarianceMatrix:
    return pure_state(two_mode_squeezer(0, 1, r, 2))


def test_symplectic_form_blocks():
    omega = symplectic_form(2)
    expected = np.block(
        [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
    )
    assert np.array_equal(omega, expected)


def test_cached_plans_are_read_only():
    # one plan per mode count, modes and transposed sides: the q/p indices of
    # each block, and +/-1 factors that negate only each block's p rows and
    # columns of its transposed side
    omega = symplectic_form(2)
    plan = gaussian._plan(4, ((0, 1), (1, 3)), ((), (3,)))
    rows, cols, signs = plan
    # two blocks of two kept modes: four q/p indices each
    assert rows.shape == (2, 4, 1)
    assert rows[..., 0].tolist() == cols[..., 0, :].tolist() == [[0, 1, 4, 5], [1, 3, 5, 7]]
    flip = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])
    assert np.array_equal(signs, [np.ones((4, 4)), flip])
    one_block = gaussian._plan(3, (0, 2), (0,))
    assert np.array_equal(one_block[2], np.outer([1.0, 1.0, -1.0, 1.0], [1.0, 1.0, -1.0, 1.0]))
    assert gaussian._plan(4, ((0, 1), (1, 3)))[2] is None
    for array in (omega, rows, cols, rows.base, signs, one_block[2], one_block[2].base):
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0, 0] = 7
    assert gaussian._plan(4, ((0, 1), (1, 3)), ((), (3,))) is plan


def test_vacuum_is_identity():
    vac = vacuum(4)
    assert vac.n_modes == 4
    assert vac.data.shape == (8, 8)
    assert np.array_equal(vac.data, np.eye(8))
    assert symplectic_eigenvalues(vac).min() >= 1 - 1e-9
    assert vac.is_pure()


def test_mode_count_is_read_off_the_array():
    # a 4 x 4 matrix holds two modes, (q1, q2, p1, p2): mode 0 keeps q1 and p1,
    # and the noise floor scales with the full dimension 4
    cm = CovarianceMatrix(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert cm.n_modes == 2
    assert np.array_equal(reduce(cm, {0}).data, np.diag([1.0, 3.0]))
    assert cm.spectral_noise_floor() == 2e-13 * 4 * 4
    assert pure_state(SymplecticTransform(np.eye(6))).n_modes == 3


def test_two_mode_squeezer_entries():
    # q-block mixes with +sinh, p-block with -sinh
    r = 0.7
    s = two_mode_squeezer(0, 1, r, 2).data
    c, sh = math.cosh(r), math.sinh(r)
    assert s[0, 0] == pytest.approx(c, abs=0)
    assert s[0, 1] == pytest.approx(sh, abs=0)
    assert s[2, 3] == pytest.approx(-sh, abs=0)
    assert s[3, 3] == pytest.approx(c, abs=0)
    assert s[0, 2] == 0.0 and s[1, 3] == 0.0


def test_symplectic_transform_validates():
    with pytest.raises(ValueError, match="not symplectic"):
        SymplecticTransform(np.diag([2.0, 3.0]))


def test_compose_applies_rightmost_first():
    a = two_mode_squeezer(0, 1, 0.4, 3)
    b = two_mode_squeezer(1, 2, 0.9, 3)
    combined = pure_state(compose(a, b))
    # b makes its state from the vacuum, then a acts on it by congruence
    step_by_step = a.data @ pure_state(b).data @ a.data.T
    assert np.allclose(combined.data, step_by_step, atol=1e-12)
    swapped = pure_state(compose(b, a))
    assert not np.allclose(combined.data, swapped.data, atol=1e-6)


def test_reduce_single_mode_of_tmsv():
    # tracing one arm of a two-mode squeezed state leaves a thermal mode
    r = 0.8
    red = reduce(tmsv(r), {0})
    assert np.allclose(red.data, math.cosh(2 * r) * np.eye(2), atol=1e-12)


def test_reduce_identity_and_errors():
    state = tmsv(0.5)
    assert np.array_equal(reduce(state, {0, 1}).data, state.data)


def test_partial_transpose_is_momentum_flip():
    state = tmsv(0.6)
    flipped = partial_transpose(state, ModePartition(frozenset({0}), frozenset({1})))
    signs = np.array([1.0, 1.0, 1.0, -1.0])
    assert np.allclose(flipped.data, state.data * np.outer(signs, signs), atol=0)


def test_partial_transpose_involution():
    state = tmsv(1.1)
    part = ModePartition(frozenset({0}), frozenset({1}))
    twice = partial_transpose(partial_transpose(state, part), part)
    assert np.allclose(twice.data, state.data, atol=0)


def test_symplectic_eigenvalues_known_values():
    assert np.allclose(symplectic_eigenvalues(vacuum(2)), [1.0, 1.0], atol=1e-12)
    thermal = CovarianceMatrix(2.0 * np.eye(2))
    assert np.allclose(symplectic_eigenvalues(thermal), [2.0], atol=1e-12)
    assert np.allclose(symplectic_eigenvalues(tmsv(1.3)), [1.0, 1.0], atol=1e-9)


def test_symplectic_eigenvalues_of_partial_transpose():
    r = 0.9
    nu = symplectic_eigenvalues(
        partial_transpose(tmsv(r), ModePartition(frozenset({0}), frozenset({1})))
    )
    assert nu[0] == pytest.approx(math.exp(-2 * r), abs=1e-12)
    assert nu[1] == pytest.approx(math.exp(2 * r), abs=1e-11)


def _forbid_general_eigensolver(monkeypatch):
    def no_general_route(matrix):
        raise AssertionError("gaussian must not call np.linalg.eigvals")

    monkeypatch.setattr(np.linalg, "eigvals", no_general_route)


def test_symplectic_eigenvalues_refuse_an_indefinite_matrix(monkeypatch):
    # Williamson's theorem needs a positive definite matrix, so an indefinite
    # one raises, and no general eigensolver stands in for the Cholesky route
    _forbid_general_eigensolver(monkeypatch)
    for bad in (np.diag([1.0, -0.5]), np.diag([1.0, 3.0, -0.5, 2.0])):
        with pytest.raises(ValueError, match="positive definite"):
            symplectic_eigenvalues(CovarianceMatrix(bad))
    assert not re.search(r"\beigvals\b", inspect.getsource(gaussian))


def test_one_indefinite_matrix_makes_the_whole_stack_raise(monkeypatch):
    # there is no general route: one indefinite matrix makes the whole stack
    # raise, and the valid matrices of that stack still equal their
    # single-matrix spectra
    _forbid_general_eigensolver(monkeypatch)
    indefinite = np.diag([1.0, 3.0, -0.5, 2.0])
    stack = np.stack([tmsv(0.3).data, indefinite, tmsv(1.1).data, 2.0 * np.eye(4)])
    with pytest.raises(ValueError, match="positive definite"):
        symplectic_eigenvalues(CovarianceMatrix(stack))
    valid = np.delete(stack, 1, axis=0)
    nu = symplectic_eigenvalues(CovarianceMatrix(valid))
    for k, matrix in enumerate(valid):
        assert np.array_equal(nu[k], symplectic_eigenvalues(CovarianceMatrix(matrix)))


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 1.5, 2.5])
def test_log_negativity_of_tmsv(r):
    part = ModePartition(frozenset({0}), frozenset({1}))
    assert log_negativity(two_mode_squeezer(0, 1, r, 2), part) == pytest.approx(2 * r, abs=1e-10)


def test_log_negativity_vacuum_and_swap():
    part = ModePartition(frozenset({0}), frozenset({1}))
    assert log_negativity(SymplecticTransform(np.eye(4)), part) == 0.0
    squeezer = two_mode_squeezer(0, 1, 0.8, 2)
    value = log_negativity(squeezer, part)
    assert value == pytest.approx(1.6, abs=1e-10)
    assert value == pytest.approx(log_negativity(squeezer, ModePartition(part.side_b, part.side_a)), abs=1e-10)


def test_permute_modes_round_trip():
    state = pure_state(two_mode_squeezer(0, 1, 0.7, 3))
    cycled = permute_modes(state, [2, 0, 1])
    nu_before = symplectic_eigenvalues(state)
    nu_after = symplectic_eigenvalues(cycled)
    assert np.allclose(nu_before, nu_after, atol=1e-10)
    back = permute_modes(cycled, [1, 2, 0])
    assert np.allclose(back.data, state.data, atol=0)


def test_physicality_of_partial_transpose():
    r = 0.5
    flipped = partial_transpose(tmsv(r), ModePartition(frozenset({0}), frozenset({1})))
    nu_min = symplectic_eigenvalues(flipped).min()
    # the flipped state violates the uncertainty bound nu >= 1
    assert nu_min == pytest.approx(math.exp(-2 * r), abs=1e-12)
    assert nu_min < 1


def test_spectral_noise_floor_scales():
    small = vacuum(2).spectral_noise_floor()
    big = CovarianceMatrix(1e4 * np.eye(4)).spectral_noise_floor()
    assert 0 < small < big


@given(r=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_tmsv_negativity_matches_closed_form(r):
    part = ModePartition(frozenset({0}), frozenset({1}))
    value = log_negativity(two_mode_squeezer(0, 1, r, 2), part)
    # near r = 0 the signal nu - 1 = 2r^2 sinks below the spectral noise
    # floor, so only resolution-limited accuracy ~sqrt(floor) is promised
    assert value == pytest.approx(2 * r, abs=2e-6)
    if r >= 0.05:
        assert value == pytest.approx(2 * r, abs=1e-9)


@given(a=squeezings, s=squeezings)
@settings(max_examples=40, deadline=None)
def test_squeezer_chain_outputs_pure_physical_states(a, s):
    chain = compose(
        two_mode_squeezer(1, 2, s, 4),
        two_mode_squeezer(0, 1, a, 4),
        two_mode_squeezer(2, 3, a, 4),
    )
    state = pure_state(chain)
    # at a = s = 2.45 the spectrum sits 3.4e-9 below 1, inside the noise floor
    band = max(1e-9, state.spectral_noise_floor())
    assert symplectic_eigenvalues(state).min() >= 1 - band
    assert state.is_pure()


@given(r=st.floats(min_value=0.01, max_value=2.0, allow_nan=False), seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_partial_transpose_involution_random_partitions(r, seed):
    rng = np.random.default_rng(seed)
    state = pure_state(two_mode_squeezer(0, 1, r, 3))
    modes = [0, 1, 2]
    rng.shuffle(modes)
    part = ModePartition(frozenset(modes[:1]), frozenset(modes[1:]))
    twice = partial_transpose(partial_transpose(state, part), part)
    assert np.array_equal(twice.data, state.data)


def test_stacked_squeezer_matches_single_degrees():
    degrees = [0.0, 0.4, 2.5]
    stacked = two_mode_squeezer(0, 2, degrees, 3)
    assert stacked.data.shape == (3, 6, 6)
    for k, r in enumerate(degrees):
        assert np.array_equal(stacked.data[k], two_mode_squeezer(0, 2, r, 3).data)


def test_stack_with_one_non_symplectic_matrix_raises_its_own_error():
    bad = np.diag([2.0, 3.0])
    with pytest.raises(ValueError) as alone:
        SymplecticTransform(bad)
    squeezer = np.diag([2.0, 0.5])
    with pytest.raises(ValueError) as stacked:
        SymplecticTransform(np.stack([np.eye(2), squeezer, bad, squeezer]))
    assert str(stacked.value) == str(alone.value)
    assert "not symplectic" in str(alone.value)


def test_log_negativity_of_a_stack_of_transforms_is_the_kernel_without_a_purity_test(monkeypatch):
    part = ModePartition(frozenset({0}), frozenset({1}))
    squeezers = two_mode_squeezer(0, 1, [0.9, 0.05, 2.5], 2)

    def no_purity_test(self, tol=None):
        raise AssertionError("log_negativity must not run a purity test")

    monkeypatch.setattr(CovarianceMatrix, "is_pure", no_purity_test)
    pure_route = log_negativity(squeezers, part)
    reduced = reduce(pure_state(squeezers), {0})
    kernel = gaussian.spectrum_log_negativity(symplectic_eigenvalues(reduced), reduced.spectral_noise_floor())
    assert np.array_equal(pure_route, kernel)
    assert np.allclose(pure_route, [1.8, 0.1, 5.0], atol=1e-9)


def _one_mode_squeezer(k: int, r: np.ndarray, n_modes: int) -> SymplecticTransform:
    # q_k scaled by e^r and p_k by e^-r, one transform per degree of the stack r
    diag = np.ones(r.shape + (2 * n_modes,))
    diag[..., k], diag[..., n_modes + k] = np.exp(r), np.exp(-r)
    return SymplecticTransform(diag[..., :, None] * np.eye(2 * n_modes))


def _random_squeezer_stack(rng: np.random.Generator, n_modes: int, size: int) -> SymplecticTransform:
    # a stack of `size` products of three random one-mode and two-mode squeezers
    factors = []
    for _ in range(3):
        r = rng.uniform(-1.0, 1.0, size)
        if n_modes == 1 or rng.random() < 0.5:
            factors.append(_one_mode_squeezer(int(rng.integers(n_modes)), r, n_modes))
        else:
            i, j = rng.choice(n_modes, 2, replace=False)
            factors.append(two_mode_squeezer(int(i), int(j), r, n_modes))
    return compose(*factors)


def _assert_pure_state_needs_no_symmetrizing(transform: SymplecticTransform) -> None:
    # S @ S^T is exactly symmetric, so the state stores the product itself, read-only
    product = transform.data @ transform.data.swapaxes(-1, -2)
    assert np.array_equal(product, product.swapaxes(-1, -2))
    state = pure_state(transform)
    assert state.data.tobytes() == product.tobytes()
    assert not state.data.flags.writeable


def test_pure_state_of_the_family_grid_is_exactly_symmetric():
    # build_state's transforms on the 0.25 grid over [0, 7]^2, stacked and alone,
    # leaving out the points whose transform check refuses
    transforms = []
    for a, s in itertools.product(np.arange(29) / 4, repeat=2):
        try:
            transforms.append(SymplecticTransform(np.reshape(_transform_entries(a, s), (8, 8))))
        except ValueError:
            continue
    assert len(transforms) > 400  # 512 of the 841 points today
    for transform in transforms:
        _assert_pure_state_needs_no_symmetrizing(transform)
    _assert_pure_state_needs_no_symmetrizing(SymplecticTransform(np.stack([t.data for t in transforms])))


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_pure_state_of_random_squeezer_stacks_is_exactly_symmetric(n_modes):
    rng = np.random.default_rng(n_modes)
    for size in (1, 7, 300):
        _assert_pure_state_needs_no_symmetrizing(_random_squeezer_stack(rng, n_modes, size))


def test_pure_state_refuses_a_product_past_the_float64_range():
    squeezer = SymplecticTransform(np.diag([1e200, 1e-200]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="covariance matrix contains non-finite entries"):
        pure_state(squeezer)


def test_reductions_stack_the_reductions_of_each_subset():
    state = pure_state(two_mode_squeezer(0, 2, [0.3, 1.4], 3))
    subsets = [[0, 1], [2, 0], [1, 2]]
    stacked = gaussian.reductions(state, subsets)
    assert stacked.n_modes == 2 and stacked.data.shape == (2, 3, 4, 4)
    for k, modes in enumerate(subsets):
        assert np.array_equal(stacked.data[:, k], reduce(state, modes).data)
