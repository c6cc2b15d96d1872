import dataclasses

import pytest

from promiscuity import contangle, four_mode, gaussian, verification
from promiscuity.config import GridConfig


def test_point_suites_take_s_from_the_s_axis(monkeypatch):
    cfg = GridConfig(a_max=2.5, s_max=0.5)
    visited = []

    def recording(name):
        real = getattr(four_mode, name)

        def wrapper(params, *args):
            visited.extend(params if isinstance(params, list) else [params])
            return real(params, *args)

        return wrapper

    for name in ("build_state", "full_report", "full_inseparability_check"):
        monkeypatch.setattr(four_mode, name, recording(name))
    for suite in (
        verification.suite_gaussian_invariants,
        verification.suite_inseparability,
        verification.suite_report_consistency,
    ):
        before = len(visited)
        assert suite(cfg).ok
        assert len(visited) > before
    assert all(cfg.s_min <= p.s <= cfg.s_max for p in visited)
    assert max(p.a for p in visited) == cfg.a_max


@pytest.mark.parametrize(
    "suite",
    [
        verification.suite_one_vs_rest_agreement,
        verification.suite_interpair_agreement,
        verification.suite_pair_separability,
    ],
)
def test_spectral_fault_turns_spectral_suites_red(monkeypatch, suite):
    cfg = GridConfig(density=6)
    assert suite(cfg).ok
    real = gaussian.symplectic_eigenvalues
    monkeypatch.setattr(gaussian, "symplectic_eigenvalues", lambda sigma: 1.01 * real(sigma))
    assert not suite(cfg).ok


@pytest.mark.parametrize(
    "suite, corrupted",
    [
        (
            verification.suite_one_vs_rest_agreement,
            lambda f: {"one_vs_rest_contangle": {**f.one_vs_rest_contangle, 2: f.one_vs_rest_contangle[2] + 1e-6}},
        ),
        (
            verification.suite_interpair_agreement,
            lambda f: {"interpair_contangle": f.interpair_contangle * (1 + 1e-6)},
        ),
        (
            # (2, 3) is already 0 above the threshold, so only points below it change
            verification.suite_pair_separability,
            lambda f: {"pairwise_contangle": {**f.pairwise_contangle, (2, 3): 0.0}},
        ),
    ],
    ids=["one_vs_rest", "interpair", "pair_separability"],
)
def test_closed_form_fault_turns_spectral_suites_red(monkeypatch, suite, corrupted):
    # the closed side of each check is read from the closed_forms record
    cfg = GridConfig(density=6)
    assert suite(cfg).ok
    real = contangle.closed_forms

    def corrupt(params):
        forms = real(params)
        return dataclasses.replace(forms, **corrupted(forms))

    monkeypatch.setattr(contangle, "closed_forms", corrupt)
    assert not suite(cfg).ok
