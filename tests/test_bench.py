from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P

from enrfem.problem import (
    BoundaryCondition,
    InterfaceSpec,
    ProblemFileError,
    ProblemSpec,
    catalog_problem,
    load_problem_file,
    manufactured_rhs,
)


def _wall_model(n=4):
    """Problems 1-3 from the wall-model formulas: {pid: (interfaces, layers)}.

    A layer is (D, delta, w, exact value).  The diffusivities and
    convection parameters make the flux -D u' + 2 delta u continuous at
    every interface for the branches x^(n-1)/30, x^n/3, x^(n+1) and
    3(1 - x) x^(n+1), and lam couples the jump at 1/9 to the flux.
    """
    d0 = 1.0
    d1 = 18.0 * (n - 1) / (10.0 * n)
    delta1 = 0.5 * (9.0 * n * d1 - 8.1 * (n - 1))
    d2 = (6.0 * n * d1 - 2.0 * delta1) / (3.0 * (n + 1))
    delta2 = 0.5 * (3.0 * (n + 1) * d2 - 3.0 * n * d1 + 2.0 * delta1)
    d3 = (8.0 * delta2 - 3.0 * (n + 1) * d2) / (3.0 * (n + 5))
    delta3 = 0.25 * (3.0 * (n - 1) * d3 - 3.0 * (n + 1) * d2 + 4.0 * delta2)
    lam = 1.0 / (81.0 * (n - 1) * d0)
    x = Polynomial([0.0, 1.0])
    u0, u1, u2 = x ** (n - 1) / 30.0, x ** n / 3.0, x ** (n + 1)
    u3 = 3.0 * (1.0 - x) * x ** (n + 1)
    implicit = InterfaceSpec(1.0 / 9.0, lam)
    first, second = InterfaceSpec(1.0 / 3.0), InterfaceSpec(2.0 / 3.0)
    wall = [(d0, 0.0, 0.0, u0), (d1, delta1, 10.0, u1), (d2, delta2, 1.0, u2), (d3, delta3, 0.1, u3)]
    return {
        1: ((implicit,), [wall[0], (d1, delta1, 0.0, u1)]),
        2: ((first, second), wall[1:]),
        3: ((implicit, first, second), wall),
    }


@pytest.mark.parametrize("pid", [1, 2, 3])
def test_the_catalog_files_equal_the_wall_model(pid):
    """Every field that catalog/<pid>.json gives has the bits of the formulas' rebuild."""
    problem = catalog_problem(pid).problem
    interfaces, layers = _wall_model()[pid]
    assert problem.domain == (0.0, 1.0)
    assert problem.interfaces == interfaces
    assert len(problem.exact) == len(layers)
    for i, (d, delta, w, value) in enumerate(layers):
        d, delta, w = (Polynomial([c]) for c in (d, delta, w))
        for got, want in ((problem.diffusivity[i], d), (problem.conv_delta[i], delta),
                          (problem.reaction[i], w), (problem.exact[i], value),
                          (problem.source[i], _operator_source(value, d, delta, w))):
            assert got.coef.tobytes() == want.coef.tobytes(), i
    assert problem.bc_left == BoundaryCondition.neumann(0.0)
    right = BoundaryCondition.dirichlet(float(layers[-1][3](1.0)))
    assert problem.bc_right == right and problem.bc_right.value.hex() == right.value.hex()


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
        with pytest.raises(ProblemFileError, match="1..6"):
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
    v1, v2, v3 = exact
    assert abs(float(v1(1 / 3)) - float(v2(1 / 3))) <= 1e-15
    assert float(v1(1 / 3)) == pytest.approx(1 / 243, rel=1e-14)
    assert abs(float(v2(2 / 3)) - float(v3(2 / 3))) <= 1e-15
    assert float(v2(2 / 3)) == pytest.approx(32 / 243, rel=1e-14)


def test_implicit_jump_identity():
    """[u] = 1/19683 - 1/21870 = 1/196830 = lam * D0 * u'(alpha-)."""
    entry = catalog_problem(1)
    v0, v1 = entry.problem.exact
    d0 = v0.deriv()
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
        vl, vr = exact[j], exact[j + 1]
        dl, dr = vl.deriv(), vr.deriv()
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
    const = (Polynomial([2.5]),)
    (f,) = manufactured_rhs(const, [Polynomial([3.0])], [Polynomial([1.7])], [Polynomial([4.0])])
    xs = np.linspace(0.0, 1.0, 7)
    assert np.allclose(f(xs), 4.0 * 2.5, atol=1e-14)


def test_manufactured_requires_polynomials():
    exact = (np.cos,)
    with pytest.raises(ValueError, match="not a polynomial"):
        manufactured_rhs(exact, [Polynomial([1.0])], [Polynomial([0.0])], [Polynomial([0.0])])
    # a Polynomial on another domain is not in powers of x
    shifted = (Polynomial([0.0, 1.0], domain=[0.0, 1.0]),)
    with pytest.raises(ValueError, match="not a polynomial in x"):
        manufactured_rhs(shifted, [Polynomial([1.0])], [Polynomial([0.0])], [Polynomial([0.0])])


def _operator_source(value, d, delta, w):
    """f = (-D u' + 2 delta u)' + w u with Polynomial's operators: the oracle."""
    return (-d * value.deriv() + 2.0 * delta * value).deriv() + w * value


@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5, 6, "sweep-117"])
def test_manufactured_rhs_has_the_operators_bits(pid):
    """The coefficient-array arithmetic gives the coefficients of the operators, bit for bit."""
    if pid == "sweep-117":
        problem = load_problem_file(Path(__file__).parent / "fixtures" / "sweep-117.json")
    else:
        problem = catalog_problem(pid).problem
    layers = (problem.diffusivity, problem.conv_delta, problem.reaction)
    sources = manufactured_rhs(problem.exact, *layers)
    for i, (value, source) in enumerate(zip(problem.exact, sources)):
        want = _operator_source(value, *(coefficient[i] for coefficient in layers))
        assert source.coef.tobytes() == want.coef.tobytes(), i
        assert source.coef.tobytes() == problem.source[i].coef.tobytes(), i


def _numpy_polynomial_source(value, d, delta, w):
    """f = (-D u' + 2 delta u)' + w u by polymul, polyadd and polyder: the oracle."""
    u, d, delta, w = (p.coef for p in (value, d, delta, w))
    flux = P.polyadd(P.polymul(-d, P.polyder(u)), P.polymul(P.polymul(2.0, delta), u))
    return Polynomial(P.polyadd(P.polyder(flux), P.polymul(w, u)))


def _assert_numpy_polynomial_bits(problem, diffusivity, conv_delta, reaction):
    """Manufactured sources and the problem's exact-derivative table have numpy.polynomial's bytes.

    The sources are manufactured from ``problem.exact`` and the given
    coefficients.  Column j of the derivative table, which
    ``compute_errors`` evaluates on its pieces, holds branch j's
    ``Polynomial.deriv`` coefficients, zero above its degree.
    """
    exact = problem.exact
    sources = manufactured_rhs(exact, diffusivity, conv_delta, reaction)
    for i, (value, source) in enumerate(zip(exact, sources)):
        want = _numpy_polynomial_source(value, diffusivity[i], conv_delta[i], reaction[i])
        assert source.coef.tobytes() == want.coef.tobytes(), i
    derivatives = problem.tables["exact_derivative"]
    want = np.zeros_like(derivatives)
    for column, value in zip(want.T, exact):
        column[:len(value.deriv().coef)] = value.deriv().coef
    assert derivatives.tobytes() == want.tobytes()


@pytest.mark.parametrize("pid", [1, 2, 3, "sweep-117"])
def test_loading_has_numpy_polynomials_bits(pid):
    """The catalog's and the fixture's sources and exact derivatives, as polymul/polyadd/polyder give them.

    Problems 4-6 are problems 1-3 at degree 2.
    """
    if pid == "sweep-117":
        problem = load_problem_file(Path(__file__).parent / "fixtures" / "sweep-117.json")
    else:
        problem = catalog_problem(pid).problem
    _assert_numpy_polynomial_bits(
        problem, problem.diffusivity, problem.conv_delta, problem.reaction
    )


def _coefficients(max_degree):
    """Coefficient lists of degree 0 to max_degree, with up to two trailing zeros."""
    return st.tuples(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=max_degree + 1),
        st.sampled_from([[], [0.0], [0.0, -0.0]]),
    ).map(lambda parts: parts[0] + parts[1])


_ZERO_OR = st.sampled_from([[0.0], [-0.0], [0.0, 0.0]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    u=_coefficients(6),
    d=_coefficients(2),
    delta=st.one_of(_ZERO_OR, _coefficients(3)),
    w=st.one_of(_ZERO_OR, _coefficients(3)),
)
@example(u=[5.0], d=[1.0], delta=[0.0], w=[0.0])
@example(u=[-2.0, 0.0, 0.0], d=[1.0, 0.0], delta=[-0.0], w=[0.0, 0.0])
def test_drawn_layers_have_numpy_polynomials_bits(u, d, delta, w):
    """Any layer of degree 0-6, trailing zeros and zero delta or w included.

    The exact derivatives come from a one-layer problem whose exact
    solution is u; its own coefficients are constants that it accepts.
    """
    problem = ProblemSpec(domain=(0.0, 1.0), diffusivity=(1.0,), conv_delta=(0.0,),
                          reaction=(0.0,), source=(0.0,), exact=(Polynomial(u),))
    _assert_numpy_polynomial_bits(problem, *([Polynomial(c)] for c in (d, delta, w)))


@pytest.mark.parametrize("pid", [1, 2, 3])
def test_source_satisfies_strong_equation(pid):
    """f agrees with (-D u' + 2 delta u)' + w u at 50 points per layer."""
    entry = catalog_problem(pid)
    problem, exact = entry.problem, entry.problem.exact
    breaks = [0.0] + list(problem.breakpoints) + [1.0]
    for i, value in enumerate(exact):
        deriv = value.deriv()
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
    for i, value in enumerate(exact):
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
