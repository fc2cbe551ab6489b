"""Seeded input generators for the benchmark, built only through the public API.

Two ladder families:

* the flip twisted tensor product k[C2^a] (x) k[C2^b] with the trivial twist
  pair (no randomness: the seed does not change it);
* a smash-gauge family: H = k[C2^a] group-like acting on B = k[C2^b] through
  a seeded F2-linear map L from the group of B to the characters of H
  (b . g = (-1)^<L(b), g> b), twisted by the gauge
  F = sum_{s,t} w(s,t) P_s (x) P_t with P_s the character idempotents of H and
  w a seeded +-1 2-cochain that is 1 on the axes, so F is counital and F^-1 = F
  (see ``smash_gauge_rung`` for how the seed enters).

Plus the crafted single-entry mutations of ``scripts/mutation_sweep.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import crosstwist as ct
from crosstwist.crossed import with_r, with_sigma


def c2_power(a: int, field) -> ct.Algebra:
    """Group algebra of C2^a; basis index = group element as an a-bit word."""
    n = 2**a
    table = tuple(tuple(i ^ j for j in range(n)) for i in range(n))
    return ct.algebra_from_group(table, 0, field, label=f"kC2^{a}")


def _parity(x: int) -> int:
    return bin(x).count("1") % 2


@dataclass(frozen=True)
class FlipRung:
    """Crossed data of k[C2^a] (x) k[C2^b] via the flip, with the trivial pair."""

    data: ct.CrossedData
    pair: ct.TwistPair
    product_oracle: ct.Algebra  # k[C2^(a+b)]: the crossed product must equal it


def flip_rung(a: int, b: int, field) -> FlipRung:
    alg_a, alg_b = c2_power(a, field), c2_power(b, field)
    twisting = ct.TwistingMapData(a=alg_a, b=alg_b, r=ct.flip(field, alg_b.dim, alg_a.dim))
    data = ct.twisted_tensor_product(twisting)
    return FlipRung(data, ct.trivial_pair(data.a, data.v), c2_power(a + b, field))


@dataclass(frozen=True)
class SmashGaugeRung:
    quasi: ct.QuasiBialgebra
    module: ct.RightModuleAlgebra
    gauge: ct.GaugeTransformation
    data: ct.CrossedData
    pair: ct.TwistPair


def _random_automorphism(rng: random.Random, k: int) -> list[int]:
    """A uniformly random invertible F2-linear map of F2^k, as the images of the k basis vectors."""
    while True:
        cols = [rng.randrange(2**k) for _ in range(k)]
        if len({_apply(cols, x) for x in range(2**k)}) == 2**k:
            return cols


def _apply(cols: list[int], x: int) -> int:
    out = 0
    for k, col in enumerate(cols):
        if x >> k & 1:
            out ^= col
    return out


def _transpose(cols: list[int], x: int) -> int:
    return sum(_parity(col & x) << k for k, col in enumerate(cols))


def smash_gauge_rung(a: int, b: int, field, rng: random.Random) -> SmashGaugeRung:
    """A seeded smash-gauge instance, b <= a.

    The seed relabels one fixed base instance (L0 = the inclusion of F2^b in
    F2^a, w0 a fixed +-1 cochain) by random automorphisms P of C2^a and Q of
    C2^b: L = P^T L0 Q and w(P^T s, P^T t) = w0(s, t).  Every seed so gets a
    different but isomorphic instance, and the cost does not depend on the seed.
    """
    nh, nb = 2**a, 2**b
    quasi = ct.group_like_bialgebra(c2_power(a, field))
    alg_b = c2_power(b, field)
    base = random.Random(f"smash-gauge/base/{a}x{b}")
    omega0 = {
        (s, t): 1 if s == 0 or t == 0 else base.choice((1, -1)) for s in range(nh) for t in range(nh)
    }
    p, q = _random_automorphism(rng, a), _random_automorphism(rng, b)

    one = field.one()
    action = ct.MapBuilder(field, (nb, nh), (nb,))
    for y in range(nb):
        char = _transpose(p, _apply(q, y))
        for g in range(nh):
            action.add(y, y * nh + g, field.neg(one) if _parity(char & g) else one)
    module = ct.RightModuleAlgebra(
        dim=nb, mult=alg_b.mult, unit=alg_b.unit, action=action.build(), label=f"kC2^{b}-signed"
    )

    omega = {(_transpose(p, s), _transpose(p, t)): w for (s, t), w in omega0.items()}
    coords = []
    for g in range(nh):
        for h in range(nh):
            total = sum(
                w * (-1) ** (_parity(s & g) + _parity(t & h)) for (s, t), w in omega.items()
            )
            coords.append(field.from_fraction(Fraction(total, nh * nh)))
    gauge = ct.GaugeTransformation(f=tuple(coords), f_inverse=tuple(coords))

    data = ct.smash_product_data(quasi, module)
    return SmashGaugeRung(quasi, module, gauge, data, ct.gauge_twist_pair(module, gauge))


def gauge_route(rung) -> ct.CrossedData:
    """The twisted smash product computed directly from the Drinfeld-twisted inputs."""
    return ct.smash_product_data(
        ct.drinfeld_twist(rung.quasi, rung.gauge),
        ct.module_algebra_twist(rung.quasi, rung.module, rung.gauge),
    )


def bump(f: ct.LinMap, row: int, col: int) -> ct.LinMap:
    """``f`` with one entry increased by 1."""
    rows = [list(r) for r in f.matrix]
    rows[row][col] = f.field.add(rows[row][col], f.field.one())
    return ct.LinMap(f.field, f.domain_dims, f.codomain_dims, tuple(tuple(r) for r in rows))


def mutations(data: ct.CrossedData):
    """(description, kind, mutated input) for the crafted single-entry pokes.

    ``kind`` is ``"crossed"`` (checked with check_brz_axioms) or ``"algebra"``
    (checked with check_algebra); descriptions match ``scripts/mutation_sweep.py``.
    """
    m, n = data.a.dim, data.v.dim
    for k in range(m):
        yield f"r[(0,0),(point,a_{k})] += 1", "crossed", with_r(data, bump(data.r, 0, k))
    for j in range(1, n):
        yield f"r[(0,0),(v_{j},unit)] += 1", "crossed", with_r(data, bump(data.r, 0, j * m))
    for el in range(n):
        yield f"sigma[(0,0),(point,v_{el})] += 1", "crossed", with_sigma(data, bump(data.sigma, 0, el))
    for col in (0, 1, m):
        mult = bump(data.a.mult, 0, col)
        yield f"mult[(0),{col}] += 1", "algebra", ct.Algebra(m, mult, data.a.unit)
