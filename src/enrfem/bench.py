"""Benchmark catalog: a multi-layer porous-wall model of drug release.

Six problems on (0, 1).  A drug concentration is injected at an interface
(where the solution jumps and the jump couples implicitly to the one-sided
flux) and diffuses rightward through layers where it stays continuous;
the flux -D u' + 2 delta u is continuous at every interface.

Problems 1-3 use enriched linear elements, problems 4-6 repeat the same
BVPs with enriched quadratics:

  1/4: one implicit interface at 1/9, discontinuous solution
  2/5: two continuous interfaces at 1/3 and 2/3
  3/6: all three interfaces combined

All coefficients derive from the wall-model parameter n = 4; source terms
are manufactured from the exact solution branches, never transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .analysis import polynomial_branches
from .assembly import InterfaceSpec, ProblemSpec, _derivative, _product, _sum
from .femspace import BoundaryCondition


@dataclass(frozen=True)
class BenchmarkProblem:
    """Catalog entry: BVP (with its exact solution) and element degree."""

    problem: ProblemSpec
    degree: int


def _as_poly(c) -> Polynomial:
    return c if isinstance(c, Polynomial) else Polynomial([float(c)])


def manufactured_rhs(exact, diffusivity, conv_delta, reaction) -> list[Polynomial]:
    """Per-layer source f = (-D u' + 2 delta u)' + w u by polynomial arithmetic.

    For constant D and delta this is -D u'' + 2 delta u' + w u.  ``exact``
    holds one (value, derivative) pair per layer; the value callables must
    be numpy Polynomials (no numerical differentiation), and every
    Polynomial must be in powers of x (default domain and window).  The
    arithmetic runs on coefficient arrays with the operations of the
    functions that Polynomial's operators call (``assembly._product``,
    ``_sum`` and ``_derivative``), so the result has the operators' bits.
    """
    out = []
    for i, (value, _) in enumerate(exact):
        polys = [value] + [_as_poly(c) for c in (diffusivity[i], conv_delta[i], reaction[i])]
        if not isinstance(value, Polynomial) or any(
            p.domain.tolist() != p.window.tolist() for p in polys
        ):
            raise ValueError(
                f"layer {i} is not a polynomial in x; manufactured sources need "
                "second derivatives"
            )
        u, d, delta, w = (p.coef for p in polys)
        flux = _sum(_product(-d, _derivative(u)), _product(_product(np.array([2.0]), delta), u))
        out.append(Polynomial(_sum(_derivative(flux), _product(w, u))))
    return out


def _wall_constants(n: int = 4) -> dict:
    """Layer diffusivities, convection parameters, and the jump coefficient."""
    d0 = 1.0
    d1 = 18.0 * (n - 1) / (10.0 * n)
    delta1 = 0.5 * (9.0 * n * d1 - 8.1 * (n - 1))
    d2 = (6.0 * n * d1 - 2.0 * delta1) / (3.0 * (n + 1))
    delta2 = 0.5 * (3.0 * (n + 1) * d2 - 3.0 * n * d1 + 2.0 * delta1)
    d3 = (8.0 * delta2 - 3.0 * (n + 1) * d2) / (3.0 * (n + 5))
    delta3 = 0.25 * (3.0 * (n - 1) * d3 - 3.0 * (n + 1) * d2 + 4.0 * delta2)
    lam = 1.0 / (81.0 * (n - 1) * d0)
    return {
        "n": n, "d0": d0, "d1": d1, "d2": d2, "d3": d3,
        "delta1": delta1, "delta2": delta2, "delta3": delta3, "lam": lam,
    }


def _exact_branches(n: int = 4) -> dict[str, Polynomial]:
    """Concentration branches: x^(n-1)/30, x^n/3, x^(n+1), 3(1-x)x^(n+1)."""
    x = Polynomial([0.0, 1.0])
    return {
        "u0": x ** (n - 1) / 30.0,
        "u1": x ** n / 3.0,
        "u2": x ** (n + 1),
        "u3": 3.0 * (1.0 - x) * x ** (n + 1),
    }


def _build_problem(base: int) -> ProblemSpec:
    c = _wall_constants()
    u = _exact_branches(c["n"])
    alpha0, alpha1, alpha2 = 1.0 / 9.0, 1.0 / 3.0, 2.0 / 3.0

    if base == 1:
        interfaces = (InterfaceSpec(alpha0, c["lam"]),)
        diffusivity = (c["d0"], c["d1"])
        conv = (0.0, c["delta1"])
        reaction = (0.0, 0.0)
        branches = (u["u0"], u["u1"])
    elif base == 2:
        interfaces = (InterfaceSpec(alpha1), InterfaceSpec(alpha2))
        diffusivity = (c["d1"], c["d2"], c["d3"])
        conv = (c["delta1"], c["delta2"], c["delta3"])
        reaction = (10.0, 1.0, 0.1)
        branches = (u["u1"], u["u2"], u["u3"])
    else:
        interfaces = (
            InterfaceSpec(alpha0, c["lam"]),
            InterfaceSpec(alpha1),
            InterfaceSpec(alpha2),
        )
        diffusivity = (c["d0"], c["d1"], c["d2"], c["d3"])
        conv = (0.0, c["delta1"], c["delta2"], c["delta3"])
        reaction = (0.0, 10.0, 1.0, 0.1)
        branches = (u["u0"], u["u1"], u["u2"], u["u3"])

    exact = polynomial_branches(branches)
    source = manufactured_rhs(exact, diffusivity, conv, reaction)
    return ProblemSpec(
        domain=(0.0, 1.0),
        diffusivity=diffusivity,
        conv_delta=conv,
        reaction=reaction,
        source=tuple(source),
        interfaces=interfaces,
        bc_left=BoundaryCondition.neumann(0.0),
        bc_right=BoundaryCondition.dirichlet(float(branches[-1](1.0))),
        exact=exact,
    )


def catalog_problem(pid: int) -> BenchmarkProblem:
    """Benchmark problem by id; 1-3 are degree 1, 4-6 the same BVPs at degree 2."""
    if pid not in (1, 2, 3, 4, 5, 6):
        raise ValueError(f"unknown benchmark problem id {pid}; valid ids are 1..6")
    base = (pid - 1) % 3 + 1
    return BenchmarkProblem(problem=_build_problem(base), degree=1 if pid <= 3 else 2)
