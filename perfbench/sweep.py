"""Seeded generator of random problem files for the sweep-files workload.

    python3 perfbench/sweep.py --seed 1 --out perfbench/_work/sweep-1

writes ``sweep-000.json`` ... and a ``manifest.json`` that tells the
checker what each study must show.  Every file carries polynomial exact
branches, built and then checked here in exact rational arithmetic
(``fractions.Fraction``), never by the program under test:

- flux F = -D u' + 2 delta u is continuous at every interface;
- [u] = 0 at a continuous interface, and [u] = -lam F(alpha) at an
  implicit one (both layers beside it have delta = 0, so this is
  [u] = lam (D u')(alpha-));
- F = 0 at a Neumann end and u = g at a Dirichlet end;
- no interface lies on a mesh node or shares an element with another at
  any level of the study.

The make-up of the sweep is fixed by file index (degree, interface count,
boundary conditions, h0, degree of the exact solution), so every seed asks
for the same amount of work; the seed draws the positions, coefficients
and polynomials.  One extra file, the same for every seed, has gamma =
-(1/8 - alpha) on the coarsest mesh, where the paper's enrichment slope
m2 has a zero denominator.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction as Q
from math import comb
from pathlib import Path

N_RANDOM = 149
LEVELS = 4
PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)  # alpha = j/q never sits on a node of h0/2^l
NODE_MARGIN = Q(1, 32)       # |alpha - node| >= margin * h at every level
DEGENERACY_MARGIN = Q(1, 20)  # |alpha - x_{k+1} - gamma| >= margin * h at every level
ROUNDED_RTOL = 1e-12          # conditions after rounding coefficients to float
BCS = (("neumann", "dirichlet"), ("dirichlet", "dirichlet"), ("dirichlet", "neumann"))
DEGENERATE_NAME = "degenerate-gamma.json"


# -- polynomials as ascending coefficient lists --------------------------------

def peval(c, x):
    out = Q(0)
    for coef in reversed(c):
        out = out * x + coef
    return out


def pderiv(c):
    return [k * c[k] for k in range(1, len(c))] or [Q(0)]


def taylor_to_monomial(t, alpha):
    """Coefficients in x of sum_k t_k (x - alpha)^k."""
    out = [Q(0)] * len(t)
    for k, tk in enumerate(t):
        for j in range(k + 1):
            out[j] += tk * comb(k, j) * (-alpha) ** (k - j)
    return out


# -- problem description -------------------------------------------------------

def _sig(x: float, digits: int = 3) -> float:
    return float(f"{x:.{digits}g}")


def gamma_of(lam, d_minus, d_plus):
    """The program's Robin parameter gamma = -lam D- D+ / (D+ - D-), exactly."""
    return -Q(lam) * Q(d_minus) * Q(d_plus) / (Q(d_plus) - Q(d_minus))


def flux(layer, c, x):
    return -Q(layer["D"]) * peval(pderiv(c), x) + 2 * Q(layer["delta"]) * peval(c, x)


def level_sizes(h0: Q, levels: int):
    return [h0 / 2**level for level in range(levels)]


def check_placement(alphas, h0: Q, levels: int) -> None:
    """Each interface strictly inside its own element, away from nodes, at every level."""
    for h in level_sizes(h0, levels):
        elements = set()
        for alpha in alphas:
            k, rem = divmod(Q(alpha) / h, 1)
            if min(rem, 1 - rem) < NODE_MARGIN:
                raise ValueError(f"interface {alpha} is within {NODE_MARGIN} h of a node at h={h}")
            if k in elements:
                raise ValueError(f"two interfaces share element {k} at h={h}")
            elements.add(k)


def degeneracy_gaps(alpha, gamma: Q, h0: Q, levels: int):
    """|alpha - x_{k+1} - gamma| / h on the cut element of every level."""
    gaps = []
    for h in level_sizes(h0, levels):
        x_right = (Q(alpha) // h + 1) * h
        gaps.append(abs(Q(alpha) - x_right - gamma) / h)
    return gaps


def psize(c, x):
    """sum |c_k| |x|^k: the size of the terms that make up p(x)."""
    return sum(abs(coef) * abs(x) ** k for k, coef in enumerate(c))


def flux_size(layer, c, x):
    return abs(Q(layer["D"])) * psize(pderiv(c), x) + 2 * abs(Q(layer["delta"])) * psize(c, x)


def check_exact(doc: dict, branches, rtol) -> None:
    """Interface, jump and boundary laws of ``branches`` for problem ``doc``.

    ``rtol`` 0 asks for exact equality; otherwise each law may be off by
    rtol times the size of the terms it sums.
    """
    layers = [{"D": l["D"][0], "delta": l["delta_conv"][0]} for l in doc["layers"]]
    a, b = (Q(v) for v in doc["domain"])

    def same(lhs, rhs, scale, what):
        if abs(lhs - rhs) > Q(rtol) * scale:
            raise ValueError(f"{what}: {float(lhs)!r} != {float(rhs)!r}")

    for j, spec in enumerate(doc["interfaces"]):
        alpha = Q(spec["alpha"])
        left, right = branches[j], branches[j + 1]
        f_left = flux(layers[j], left, alpha)
        f_scale = flux_size(layers[j], left, alpha) + flux_size(layers[j + 1], right, alpha)
        same(f_left, flux(layers[j + 1], right, alpha), f_scale, f"flux continuity at interface {j}")
        jump = peval(right, alpha) - peval(left, alpha)
        u_scale = psize(left, alpha) + psize(right, alpha)
        if spec["kind"] == "continuous":
            same(jump, Q(0), u_scale, f"continuity at interface {j}")
        else:
            if layers[j]["delta"] != 0 or layers[j + 1]["delta"] != 0:
                raise ValueError(f"implicit interface {j} needs delta = 0 on both sides")
            lam = Q(spec["lambda"])
            scale = u_scale + lam * f_scale
            same(jump, -lam * f_left, scale, f"jump law at interface {j}")
            same(jump, lam * Q(layers[j]["D"]) * peval(pderiv(left), alpha), scale,
                 f"[u] = lam (D u')(alpha-) at interface {j}")
    for side, x, layer, c in (("left", a, layers[0], branches[0]),
                              ("right", b, layers[-1], branches[-1])):
        (kind, value), = doc["bc"][side].items()
        if kind == "neumann":
            same(flux(layer, c, x), Q(0), flux_size(layer, c, x), f"zero flux at the {side} end")
        else:
            same(peval(c, x), Q(value), psize(c, x), f"Dirichlet value at the {side} end")


def _rand_coef(rng) -> Q:
    return Q(rng.randint(-16, 16), 16)


def _top_coef(rng) -> Q:
    return Q(rng.choice((-1, 1)) * rng.randint(4, 16), 16)


def build_branches(doc: dict, u_degree: int, rng):
    """Exact polynomial branches satisfying every law of ``doc``, or None.

    Free Taylor coefficients are drawn from ``rng``; the value and slope
    at each interface follow from the jump and flux laws, and a Neumann
    right end fixes the top coefficient of the last branch.
    """
    layers = [{"D": l["D"][0], "delta": l["delta_conv"][0]} for l in doc["layers"]]
    (left_kind, _), = doc["bc"]["left"].items()
    (right_kind, _), = doc["bc"]["right"].items()
    b = Q(doc["domain"][1])

    c = [_rand_coef(rng) for _ in range(u_degree)] + [_top_coef(rng)]
    if left_kind == "neumann":  # F(0) = -D c1 + 2 delta c0 = 0
        c[1] = 2 * Q(layers[0]["delta"]) * c[0] / Q(layers[0]["D"])
    branches = [c]
    for j, spec in enumerate(doc["interfaces"]):
        alpha = Q(spec["alpha"])
        prev = branches[-1]
        f_left = flux(layers[j], prev, alpha)
        jump = 0 if spec["kind"] == "continuous" else -Q(spec["lambda"]) * f_left
        value = peval(prev, alpha) + jump
        nxt = layers[j + 1]
        slope = (2 * Q(nxt["delta"]) * value - f_left) / Q(nxt["D"])
        t = [value, slope] + [_rand_coef(rng) for _ in range(u_degree - 2)] + [_top_coef(rng)]
        if j == len(doc["interfaces"]) - 1 and right_kind == "neumann":
            t[-1] = Q(0)
            rest = flux(nxt, taylor_to_monomial(t, alpha), b)
            s = b - alpha
            gain = -Q(nxt["D"]) * u_degree * s ** (u_degree - 1) + 2 * Q(nxt["delta"]) * s**u_degree
            t[-1] = -rest / gain
            if not Q(1, 8) <= abs(t[-1]) <= 64:
                return None
        branches.append(taylor_to_monomial(t, alpha))
    return branches


def finish(doc: dict, branches) -> dict:
    """Write rounded branches and Dirichlet values into ``doc`` and check both forms."""
    check_exact(doc | {"bc": _bc_values(doc["bc"], branches, exact=True)}, branches, 0)
    doc["bc"] = _bc_values(doc["bc"], branches, exact=False)
    doc["exact"] = [[float(x) for x in c] for c in branches]
    rounded = [[Q(x) for x in c] for c in doc["exact"]]
    check_exact(doc, rounded, ROUNDED_RTOL)
    return doc


def _bc_values(bc, branches, exact):
    out = {}
    for side, c, x in (("left", branches[0], Q(0)), ("right", branches[-1], Q(1))):
        (kind, _), = bc[side].items()
        value = peval(c, x) if kind == "dirichlet" else Q(0)
        out[side] = {kind: value if exact else float(value)}
    return out


def u_max(doc: dict) -> float:
    """max |u| over the domain, sampled on each layer."""
    breaks = [doc["domain"][0]] + [s["alpha"] for s in doc["interfaces"]] + [doc["domain"][1]]
    best = 0.0
    for i, c in enumerate(doc["exact"]):
        for s in range(101):
            x = breaks[i] + (breaks[i + 1] - breaks[i]) * s / 100
            best = max(best, abs(sum(coef * x**k for k, coef in enumerate(c))))
    return best


# -- the sweep ------------------------------------------------------------------

def plan(index: int) -> dict:
    """Seed-independent make-up of random file ``index``."""
    return {
        "degree": 1 + index % 2,
        "n_interfaces": 1 + (index // 2) % 3,
        "bc": BCS[(index // 6) % 3],
        "h0": Q(1, 8) if (index // 18) % 2 == 0 else Q(1, 12),
        "u_extra": (index // 36) % 2,  # exact branches of degree p+1 or p+2
        # P2 files keep continuous interfaces: with gamma != 0 the P2 enrichment
        # loses its order on generic exact solutions (see README.md).
        "kinds": tuple(
            "implicit" if index % 2 == 0 and (index // 4 + j) % 2 == 0 else "continuous"
            for j in range(3)
        ),
    }


def random_problem(index: int, rng) -> dict:
    """One random problem file following ``plan(index)``; resamples until valid."""
    p = plan(index)
    n_if = p["n_interfaces"]
    kinds = p["kinds"][:n_if]
    while True:
        alphas = sorted({Q(rng.randint(1, q - 1), q) for q in rng.sample(PRIMES, n_if)})
        alphas = [float(a) for a in alphas]
        if len(alphas) != n_if:
            continue
        try:
            check_placement(alphas, p["h0"], LEVELS)
        except ValueError:
            continue
        d = [_sig(10 ** rng.uniform(-1.5, 1.5)) for _ in range(n_if + 1)]
        if max(d) / min(d) > 1000.0:
            continue
        if any(k == "implicit" and abs(d[j + 1] - d[j]) < 0.05 * max(d[j], d[j + 1])
               for j, k in enumerate(kinds)):
            continue
        layers = []
        for i in range(n_if + 1):
            # The enrichment's fixed ratio [psi] = gamma [psi'] assumes D u' is
            # continuous, so no convection touches an implicit interface.
            blocked = (i < n_if and kinds[i] == "implicit") or (i > 0 and kinds[i - 1] == "implicit")
            delta = 0.0 if blocked or rng.random() < 0.5 else _sig(rng.uniform(-0.5, 0.5) * d[i])
            w = 0.0 if rng.random() < 0.5 else _sig(10 ** rng.uniform(-1, 1))
            layers.append({"D": [d[i]], "delta_conv": [delta], "w": [w], "f": "manufactured"})
        interfaces, ok = [], True
        for j, (alpha, kind) in enumerate(zip(alphas, kinds)):
            if kind == "continuous":
                interfaces.append({"alpha": alpha, "kind": "continuous"})
                continue
            # lam > 0 gives gamma the sign of D- - D+; |gamma| in [1e-3, 1e-1]
            gamma_mag = 10 ** rng.uniform(-3, -1)
            lam = _sig(gamma_mag * abs(d[j + 1] - d[j]) / (d[j] * d[j + 1]), 4)
            gamma = gamma_of(lam, d[j], d[j + 1])
            if min(degeneracy_gaps(alpha, gamma, p["h0"], LEVELS)) < DEGENERACY_MARGIN:
                ok = False
                break
            interfaces.append({"alpha": alpha, "kind": "implicit", "lambda": lam})
        if not ok:
            continue
        left, right = p["bc"]
        doc = {
            "domain": [0.0, 1.0],
            "layers": layers,
            "interfaces": interfaces,
            "bc": {"left": {left: 0.0}, "right": {right: 0.0}},
        }
        branches = build_branches(doc, p["degree"] + 1 + p["u_extra"], rng)
        if branches is not None:
            return finish(doc, branches)


def degenerate_problem() -> dict:
    """alpha = 1/9, D = 1 | 1.35, gamma = -(1/8 - alpha): m2's denominator is 0 at h = 1/8.

    The exact solution is fixed (u = x^3/30 on the left layer) and
    consistent with every law, so the study can be checked once the
    program solves it.
    """
    alpha, d_minus, d_plus = 1.0 / 9.0, 1.0, 1.35
    lam = (0.125 - alpha) * (d_plus - d_minus) / (d_minus * d_plus)
    doc = {
        "domain": [0.0, 1.0],
        "layers": [
            {"D": [d_minus], "delta_conv": [0.0], "w": [0.0], "f": "manufactured"},
            {"D": [d_plus], "delta_conv": [0.0], "w": [0.0], "f": "manufactured"},
        ],
        "interfaces": [{"alpha": alpha, "kind": "implicit", "lambda": lam}],
        "bc": {"left": {"neumann": 0.0}, "right": {"dirichlet": 0.0}},
    }
    left = [Q(0), Q(0), Q(0), Q(1, 30)]
    a = Q(alpha)
    f_left = flux({"D": d_minus, "delta": 0.0}, left, a)
    value = peval(left, a) - Q(lam) * f_left
    right = taylor_to_monomial([value, -f_left / Q(d_plus), Q(1, 2), Q(1, 3)], a)
    gap = degeneracy_gaps(alpha, gamma_of(lam, d_minus, d_plus), Q(1, 8), 1)[0]
    if gap > Q(1, 10**12):
        raise ValueError(f"the degenerate file is {float(gap)} h away from the zero denominator")
    return finish(doc, [left, right])


def generate(seed: int, out_dir) -> list[dict]:
    """Write the sweep for ``seed`` into ``out_dir``; return its manifest."""
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    entries = [(f"sweep-{i:03d}.json", random_problem(i, rng), plan(i)) for i in range(N_RANDOM)]
    entries.append((DEGENERATE_NAME, degenerate_problem(), {"degree": 1, "h0": Q(1, 8)}))
    for name, doc, p in entries:
        (out / name).write_text(json.dumps(doc, indent=1) + "\n")
        check_placement([s["alpha"] for s in doc["interfaces"]], p["h0"], LEVELS)
        d = [layer["D"][0] for layer in doc["layers"]]
        gammas = [float(gamma_of(s["lambda"], d[j], d[j + 1]))
                  for j, s in enumerate(doc["interfaces"]) if s["kind"] == "implicit"]
        manifest.append({
            "file": name,
            "degree": p["degree"],
            "h0": str(p["h0"]),
            "levels": LEVELS,
            "u_max": u_max(doc),
            "d_ratio": max(d) / min(d),
            "gammas": gammas,
            "degenerate": name == DEGENERATE_NAME,
        })
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the files")
    args = parser.parse_args(argv)
    manifest = generate(args.seed, args.out)
    print(f"wrote {len(manifest)} problem files and manifest.json to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
