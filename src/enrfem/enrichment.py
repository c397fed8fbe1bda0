"""The one-parameter family of interface enrichment functions.

On the interface element [x_k, x_{k+1}] containing alpha, the enrichment

    psi(x) = m1 * (x - x_k)      on [x_k, alpha)
           = m2 * (x - x_{k+1})  on (alpha, x_{k+1}]
           = 0                   elsewhere

with slopes

    m1 = (alpha - x_{k+1}) / (x_{k+1} - x_k)
    m2 = (alpha - x_k - gamma) * (alpha - x_{k+1})
         / ((x_{k+1} - x_k) * (alpha - x_{k+1} - gamma))

vanishes at both element endpoints and satisfies the Robin-type identity
[psi] = gamma * [psi'] at alpha.  gamma = 0 gives the classical continuous
(kink-only) enrichment with [psi'] = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerances for the two rejection guards below.
GAMMA_BETA_RTOL = 1e-12       # |beta+ - beta-| too small: gamma undefined
M2_DEGENERACY_RTOL = 1e-10    # |alpha - x_{k+1} - gamma| too small: m2 blows up


@dataclass(frozen=True)
class EnrichmentFunction:
    """Piecewise-linear enrichment attached to one interface element."""

    element: int
    x_left: float    # x_k
    x_right: float   # x_{k+1}
    alpha: float
    m1: float
    m2: float


def gamma_from_lambda(lam: float, beta_minus: float, beta_plus: float) -> float:
    """Jump parameter gamma = -lam * beta- * beta+ / (beta+ - beta-).

    Converts the implicit condition [u] = lam * (beta u')(alpha-) together
    with flux continuity into the explicit Robin form [u] = gamma * [u'].
    """
    if beta_minus <= 0 or beta_plus <= 0:
        raise ValueError("diffusivity limits must be positive")
    denom = beta_plus - beta_minus
    if abs(denom) < GAMMA_BETA_RTOL * max(beta_minus, beta_plus):
        raise ValueError(
            "diffusivity is continuous across the interface; gamma is "
            "undefined (use gamma=0 with lambda=0 for a continuous interface)"
        )
    return -lam * beta_minus * beta_plus / denom


def build_enrichment(
    x_k: float, x_k1: float, alpha: float, gamma: float, element: int = 0
) -> EnrichmentFunction:
    """Construct psi on [x_k, x_k1] breaking at alpha with parameter gamma."""
    if not x_k < alpha < x_k1:
        raise ValueError(f"alpha={alpha} not strictly inside ({x_k}, {x_k1})")
    h = x_k1 - x_k
    denom = alpha - x_k1 - gamma
    if abs(denom) < M2_DEGENERACY_RTOL * h:
        raise ValueError("degenerate enrichment denominator; change mesh size")
    m1 = (alpha - x_k1) / h
    m2 = (alpha - x_k - gamma) * (alpha - x_k1) / (h * denom)
    return EnrichmentFunction(
        element=element, x_left=x_k, x_right=x_k1,
        alpha=alpha, m1=m1, m2=m2,
    )


def eval_enrichment(psi: EnrichmentFunction, xs, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of psi at points xs; one-sided at x = alpha.

    ``side`` ('left' or 'right') selects the limit where a point equals
    alpha and is ignored elsewhere.  Total function: (0, 0) outside the
    support, and exactly 0 at the element endpoints.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    xs = np.asarray(xs, dtype=float)
    inside = (xs >= psi.x_left) & (xs <= psi.x_right)
    on_left = xs <= psi.alpha if side == "left" else xs < psi.alpha
    vals = np.where(on_left, psi.m1 * (xs - psi.x_left), psi.m2 * (xs - psi.x_right))
    ders = np.where(on_left, psi.m1, psi.m2)
    return np.where(inside, vals, 0.0), np.where(inside, ders, 0.0)
