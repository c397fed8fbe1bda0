import numpy as np
import pytest

from _helpers import psi_jumps
from enrfem import build_enrichment, eval_enrichment
from enrfem.problem import gamma_from_lambda


def _at(psi, x, side):
    """(value, derivative) of psi at the single point x."""
    vals, ders = eval_enrichment(psi, np.array([x]), side)
    return float(vals[0]), float(ders[0])


def test_gamma_benchmark_value():
    # -(1/243) * 1 * 1.35 / 0.35 = -1/63 ~= -1.587302e-2
    gamma = gamma_from_lambda(1 / 243, 1.0, 1.35)
    assert gamma == pytest.approx(-1 / 63, rel=1e-12)
    assert gamma == pytest.approx(-1.587302e-2, rel=1e-6)


def test_gamma_zero_lambda_is_continuous_case():
    assert gamma_from_lambda(0.0, 1.0, 2.0) == 0.0


def test_gamma_equal_diffusivities_rejected():
    with pytest.raises(ValueError, match="continuous"):
        gamma_from_lambda(1.0, 2.0, 2.0)


def test_gamma_with_equal_convection():
    """delta- scales D- in the denominator by 1 + 2 delta- lam; equal D gives D / (2 delta)."""
    lam, delta = 1 / 243, 3.0
    assert gamma_from_lambda(lam, 1.0, 1.35, 0.0) == gamma_from_lambda(lam, 1.0, 1.35)
    assert gamma_from_lambda(lam, 1.0, 1.35, delta) == pytest.approx(
        -lam * 1.35 / (1.35 - (1 + 2 * delta * lam)), rel=1e-14
    )
    assert gamma_from_lambda(lam, 2.0, 2.0, delta) == pytest.approx(2.0 / (2 * delta), rel=1e-12)


def test_gamma_zero_denominator_with_convection_named():
    with pytest.raises(ValueError, match=r"D\+ equals D- \* \(1 \+ 2 delta- lambda\)"):
        gamma_from_lambda(0.25, 1.0, 1.5, 1.0)


def test_gamma_nonpositive_diffusivity_rejected():
    with pytest.raises(ValueError, match="positive"):
        gamma_from_lambda(1.0, -1.0, 2.0)


def test_slopes_continuous_limit():
    psi = build_enrichment(0.0, 1.0, 0.5, 0.0)
    assert psi.m1 == pytest.approx(-0.5, abs=1e-15)
    assert psi.m2 == pytest.approx(0.5, abs=1e-15)
    left = _at(psi, 0.5, "left")
    right = _at(psi, 0.5, "right")
    assert left[0] == pytest.approx(right[0], abs=1e-15)  # no jump at gamma=0


def test_slopes_derived_example():
    # m2 = (0.5 - 0.25)(0.5 - 1) / (1 * (0.5 - 1 - 0.25)) = 1/6
    psi = build_enrichment(0.0, 1.0, 0.5, 0.25)
    assert psi.m1 == pytest.approx(-0.5, abs=1e-15)
    assert psi.m2 == pytest.approx(1 / 6, rel=1e-14)


def test_degenerate_denominator_rejected():
    with pytest.raises(ValueError, match="degenerate enrichment denominator"):
        build_enrichment(0.0, 1.0, 0.5, -0.5)


def test_alpha_outside_element_rejected():
    with pytest.raises(ValueError, match="strictly inside"):
        build_enrichment(0.0, 1.0, 1.0, 0.1)


def test_eval_one_sided_at_interface():
    psi = build_enrichment(0.0, 1.0, 0.5, 0.25)
    assert _at(psi, 0.5, "left") == pytest.approx((-0.25, -0.5), rel=1e-14)
    assert _at(psi, 0.5, "right") == pytest.approx((-1 / 12, 1 / 6), rel=1e-14)
    jump = _at(psi, 0.5, "right")[0] - _at(psi, 0.5, "left")[0]
    assert jump == pytest.approx(1 / 6, rel=1e-14)
    assert jump == pytest.approx(0.25 * psi_jumps(psi)[1], rel=1e-14)


def test_eval_invalid_side_rejected():
    psi = build_enrichment(0.0, 1.0, 0.5, 0.25)
    with pytest.raises(ValueError, match="side"):
        eval_enrichment(psi, np.array([0.5]), "middle")


def test_vanishes_exactly_at_element_endpoints():
    for gamma in (0.0, 0.25, -0.3):
        psi = build_enrichment(0.2, 0.9, 0.47, gamma)
        assert _at(psi, 0.2, "left")[0] == 0.0
        assert _at(psi, 0.9, "right")[0] == 0.0


def test_zero_outside_support():
    psi = build_enrichment(0.25, 0.5, 0.3, 0.1)
    assert _at(psi, 0.1, "left") == (0.0, 0.0)
    assert _at(psi, 0.75, "left") == (0.0, 0.0)


def _random_configs(count, seed=1234):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        x_k = rng.uniform(-5.0, 5.0)
        h = rng.uniform(1e-3, 2.0)
        alpha = x_k + h * rng.uniform(0.01, 0.99)
        gamma = rng.uniform(-2.0, 2.0)
        if abs(alpha - (x_k + h) - gamma) > 1e-6 * h:
            out.append((x_k, x_k + h, alpha, gamma))
    return out


def test_jump_identity_randomized():
    """[psi] = gamma [psi'] with [psi'] = (alpha-x_{k+1})/((alpha-x_{k+1})-gamma)."""
    for x_k, x_k1, alpha, gamma in _random_configs(1000):
        psi = build_enrichment(x_k, x_k1, alpha, gamma)
        jump, dj = psi_jumps(psi)
        expected_dj = (alpha - x_k1) / ((alpha - x_k1) - gamma)
        assert dj == pytest.approx(expected_dj, rel=1e-12)
        assert abs(jump - gamma * dj) <= 1e-13 * (1 + abs(gamma)) * abs(dj)
        assert abs(psi.m1) < 1
        assert np.isfinite(psi.m2)
        assert _at(psi, x_k, "left")[0] == 0.0
        assert _at(psi, x_k1, "right")[0] == 0.0


def test_gamma_zero_recovers_continuous_enrichment():
    """At gamma=0 psi equals the classical hat-like kink enrichment."""
    for x_k, x_k1, alpha, _ in _random_configs(20, seed=99):
        psi = build_enrichment(x_k, x_k1, alpha, 0.0)
        h = x_k1 - x_k
        assert abs(psi_jumps(psi)[1] - 1.0) <= 1e-14
        xs = np.linspace(x_k, x_k1, 100)
        values, _ = eval_enrichment(psi, xs, "left")  # x == alpha takes the left limit
        for x, value in zip(xs, values):
            if x <= alpha:
                expected = (x_k1 - alpha) * (x_k - x) / h
            else:
                expected = (alpha - x_k) * (x - x_k1) / h
            assert abs(value - expected) <= 1e-14 * max(1.0, abs(expected))


def test_elementwise_build_equals_scalar_builds():
    """One call on arrays gives, bit for bit, the psi of one scalar call per entry."""
    configs = _random_configs(200, seed=7)
    psi = build_enrichment(*np.array(configs).T)
    assert len(psi) == len(configs)
    for j, config in enumerate(configs):
        one = build_enrichment(*config)
        for name in ("x_left", "x_right", "alpha", "m1", "m2"):
            column, scalar = getattr(psi, name), getattr(one, name)
            assert column[j].tobytes() == np.float64(scalar).tobytes(), name
        assert psi[j] == one


def test_elementwise_build_names_the_first_bad_entry():
    """The scalar calls' messages, for the first entry that cannot be built."""
    ends = np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match=r"^alpha=1\.0 not strictly inside \(0\.0, 1\.0\)$"):
        build_enrichment(*ends, np.array([0.5, 1.0, 0.5]), np.array([0.25, 0.1, -0.5]))
    with pytest.raises(ValueError, match="^degenerate enrichment denominator; change mesh size$"):
        build_enrichment(*ends, np.array([0.5, 0.5, 1.0]), np.array([0.25, -0.5, 0.1]))
