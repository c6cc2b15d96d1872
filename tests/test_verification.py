import pytest

from promiscuity import four_mode, gaussian, verification
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
