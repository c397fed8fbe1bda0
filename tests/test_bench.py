import numpy as np
import pytest
from numpy.polynomial import Polynomial

from enrfem.analysis import polynomial_branches
from enrfem.bench import catalog_problem, manufactured_rhs


def _layer_value(problem, layer, x):
    return float(problem.diffusivity[layer](x)), float(problem.conv_delta[layer](x))


def test_wall_constants_problem1():
    entry = catalog_problem(1)
    d1, delta1 = _layer_value(entry.problem, 1, 0.5)
    assert d1 == pytest.approx(1.35, rel=1e-14)
    assert delta1 == pytest.approx(12.15, rel=1e-14)
    assert entry.problem.interfaces[0].lam == pytest.approx(1 / 243, rel=1e-14)
    assert entry.problem.gammas[0] == pytest.approx(-1 / 63, rel=1e-12)
    assert entry.problem.bc_right.value == pytest.approx(1 / 3, rel=1e-15)


def test_wall_constants_problem2():
    entry = catalog_problem(2)
    values = [_layer_value(entry.problem, i, 0.5) for i in range(3)]
    assert [v[0] for v in values] == pytest.approx([1.35, 0.54, 2.1], rel=1e-13)
    assert [v[1] for v in values] == pytest.approx([12.15, 8.1, 10.8], rel=1e-13)
    assert [float(w(0.1)) for w in entry.problem.reaction] == pytest.approx([10, 1, 0.1])
    assert entry.problem.bc_right.value == 0.0


def test_problem3_unions_the_layers():
    entry = catalog_problem(3)
    assert [s.alpha for s in entry.problem.interfaces] == pytest.approx([1 / 9, 1 / 3, 2 / 3])
    assert [s.lam for s in entry.problem.interfaces] == pytest.approx([1 / 243, 0, 0], rel=1e-14)
    assert [float(w(0.9)) for w in entry.problem.reaction] == pytest.approx([0, 10, 1, 0.1])


def test_invalid_id_rejected():
    for pid in (0, 7, -1):
        with pytest.raises(ValueError, match="1..6"):
            catalog_problem(pid)


def test_quadratic_problems_share_specs():
    for low, high in ((1, 4), (2, 5), (3, 6)):
        a = catalog_problem(low)
        b = catalog_problem(high)
        assert a.degree == 1 and b.degree == 2
        xs = np.linspace(0.01, 0.99, 17)
        for fa, fb in zip(a.problem.diffusivity + a.problem.source,
                          b.problem.diffusivity + b.problem.source):
            assert np.allclose(fa(xs), fb(xs), rtol=0, atol=0)
        assert a.problem.interfaces == b.problem.interfaces
        assert a.problem.bc_right == b.problem.bc_right


def test_exact_continuity_at_continuous_interfaces():
    exact = catalog_problem(2).problem.exact
    (v1, _), (v2, _), (v3, _) = exact
    assert abs(float(v1(1 / 3)) - float(v2(1 / 3))) <= 1e-15
    assert float(v1(1 / 3)) == pytest.approx(1 / 243, rel=1e-14)
    assert abs(float(v2(2 / 3)) - float(v3(2 / 3))) <= 1e-15
    assert float(v2(2 / 3)) == pytest.approx(32 / 243, rel=1e-14)


def test_implicit_jump_identity():
    """[u] = 1/19683 - 1/21870 = 1/196830 = lam * D0 * u'(alpha-)."""
    entry = catalog_problem(1)
    (v0, d0), (v1, _) = entry.problem.exact
    alpha = 1 / 9
    jump = float(v1(alpha)) - float(v0(alpha))
    assert jump == pytest.approx(1 / 19683 - 1 / 21870, rel=1e-14)
    assert float(d0(alpha)) == pytest.approx(1 / 810, rel=1e-14)
    lam = entry.problem.interfaces[0].lam
    assert jump == pytest.approx(lam * 1.0 * float(d0(alpha)), rel=1e-14)


@pytest.mark.parametrize("pid", [1, 2, 3])
def test_flux_continuity_at_interfaces(pid):
    entry = catalog_problem(pid)
    problem, exact = entry.problem, entry.problem.exact
    for j, spec in enumerate(problem.interfaces):
        vl, dl = exact[j]
        vr, dr = exact[j + 1]
        a = spec.alpha
        flux_left = -float(problem.diffusivity[j](a)) * float(dl(a)) \
            + 2 * float(problem.conv_delta[j](a)) * float(vl(a))
        flux_right = -float(problem.diffusivity[j + 1](a)) * float(dr(a)) \
            + 2 * float(problem.conv_delta[j + 1](a)) * float(vr(a))
        assert abs(flux_left - flux_right) <= 1e-12


def test_manufactured_source_examples():
    entry = catalog_problem(1)
    f0, f1 = entry.problem.source
    # layer 0: u = x^3/30, D = 1, delta = 0, w = 0  ->  f = -x/5
    xs = np.linspace(0.0, 0.2, 9)
    assert np.allclose(f0(xs), -xs / 5, atol=1e-15)
    # layer 1: u = x^4/3, D = 1.35, delta = 12.15, w = 0  ->  32.4x^3 - 5.4x^2
    xs = np.linspace(0.1, 1.0, 9)
    assert np.allclose(f1(xs), 32.4 * xs**3 - 5.4 * xs**2, rtol=1e-13)


def test_manufactured_constant_solution():
    const = polynomial_branches([Polynomial([2.5])])
    (f,) = manufactured_rhs(const, [Polynomial([3.0])], [Polynomial([1.7])], [Polynomial([4.0])])
    xs = np.linspace(0.0, 1.0, 7)
    assert np.allclose(f(xs), 4.0 * 2.5, atol=1e-14)


def test_manufactured_requires_polynomials():
    exact = ((np.cos, np.sin),)
    with pytest.raises(ValueError, match="not a polynomial"):
        manufactured_rhs(exact, [Polynomial([1.0])], [Polynomial([0.0])], [Polynomial([0.0])])


@pytest.mark.parametrize("pid", [1, 2, 3])
def test_source_satisfies_strong_equation(pid):
    """f agrees with (-D u' + 2 delta u)' + w u at 50 points per layer."""
    entry = catalog_problem(pid)
    problem, exact = entry.problem, entry.problem.exact
    breaks = [0.0] + list(problem.breakpoints) + [1.0]
    for i, (value, deriv) in enumerate(exact):
        xs = np.linspace(breaks[i], breaks[i + 1], 52)[1:-1]
        d = problem.diffusivity[i](xs)
        delta = problem.conv_delta[i](xs)
        w = problem.reaction[i](xs)
        strong = -d * value.deriv(2)(xs) + 2 * delta * deriv(xs) + w * value(xs)
        f = problem.source[i](xs)
        scale = max(1.0, np.max(np.abs(f)))
        assert np.max(np.abs(f - strong)) <= 1e-10 * scale


@pytest.mark.parametrize("pid", [1, 2, 3])
def test_source_against_finite_difference_oracle(pid):
    """Second-order central differences of the strong operator confirm f."""
    entry = catalog_problem(pid)
    problem, exact = entry.problem, entry.problem.exact
    eps = 1e-4
    breaks = [0.0] + list(problem.breakpoints) + [1.0]
    for i, (value, _) in enumerate(exact):
        lo, hi = breaks[i], breaks[i + 1]
        xs = np.linspace(lo + 10 * eps, hi - 10 * eps, 23)
        d = problem.diffusivity[i](xs)
        delta = problem.conv_delta[i](xs)
        w = problem.reaction[i](xs)
        u = value(xs)
        d2u = (value(xs + eps) - 2 * u + value(xs - eps)) / eps**2
        d1u = (value(xs + eps) - value(xs - eps)) / (2 * eps)
        fd = -d * d2u + 2 * delta * d1u + w * u
        f = problem.source[i](xs)
        scale = max(1.0, np.max(np.abs(f)))
        assert np.max(np.abs(fd - f)) <= 1e-6 * scale
