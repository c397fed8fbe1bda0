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
(kink-only) enrichment with [psi'] = 1; ``problem`` derives every other gamma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

M2_DEGENERACY_RTOL = 1e-10  # |alpha - x_{k+1} - gamma| too small: m2 blows up


@dataclass(frozen=True)
class EnrichmentFunction:
    """Piecewise-linear enrichments, one per cut element: each field holds one value per cut.

    A single psi, as ``build_enrichment`` makes from scalars, has scalar fields.
    """

    x_left: np.ndarray    # x_k
    x_right: np.ndarray   # x_{k+1}
    alpha: np.ndarray
    m1: np.ndarray
    m2: np.ndarray

    def __len__(self) -> int:
        return np.size(self.alpha)

    def __getitem__(self, j) -> EnrichmentFunction:
        """Every column indexed by ``j``: cut j's psi, or (c, 1) columns for ``[:, None]``."""
        return EnrichmentFunction(*(column[j] for column in vars(self).values()))


def build_enrichment(x_k, x_k1, alpha, gamma) -> EnrichmentFunction:
    """Construct psi on [x_k, x_k1] breaking at alpha with parameter gamma, elementwise.

    Scalars give one psi, and arrays of one shape one psi per entry.
    Raises ValueError at the first entry that cannot be built.
    """
    x_k, x_k1, alpha, gamma = (np.asarray(v, dtype=float) for v in (x_k, x_k1, alpha, gamma))
    h = x_k1 - x_k
    denom = alpha - x_k1 - gamma
    outside = ~((x_k < alpha) & (alpha < x_k1))
    bad = np.flatnonzero(outside | (np.abs(denom) < M2_DEGENERACY_RTOL * h))
    if bad.size:
        j = bad[0]
        if outside.flat[j]:
            raise ValueError(
                f"alpha={alpha.flat[j]} not strictly inside ({x_k.flat[j]}, {x_k1.flat[j]})"
            )
        raise ValueError("degenerate enrichment denominator; change mesh size")
    m1 = (alpha - x_k1) / h
    m2 = (alpha - x_k - gamma) * (alpha - x_k1) / (h * denom)
    return EnrichmentFunction(*(v[()] for v in (x_k, x_k1, alpha, m1, m2)))  # 0-d to scalars


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
