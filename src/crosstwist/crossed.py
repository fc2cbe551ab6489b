"""Crossed-product data (A, V, R, sigma), its five axioms, and the product algebra.

The three product conditions are exact equalities of two wirings of R, sigma
and mu, compared in batches of basis columns; the two unit conditions push the vectors
at the distinguished elements through R and sigma, so failure indices stay
interpretable.  Each checker runs its private law table (``_TWISTING_LAWS``,
``_BRZ_LAWS``) with ``report._run``; tw3 and brz3 share one entry.  A passing
``check_twisting_map`` or ``check_brz_axioms`` report is remembered per
object (see ``report``), and the product on A (x) V ends in the triple
product of A as two ``mult`` steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

from .algebra import Algebra, PointedSpace, _triple, check_algebra, opposite_unit_insertion
from .fields import Field
from .linmap import LinMap, ShapeError, _sparse, _Wiring, compose, kron_vec, reshape
from .report import AxiomReport, _certify_once, _run, _table


class InvalidDataError(ValueError):
    """Construction from data that fails a required axiom; names the law."""


@dataclass(frozen=True)
class CrossedData:
    """The quadruple (A, V, R, sigma) with R: V(x)A -> A(x)V and sigma: V(x)V -> A(x)V."""

    a: Algebra
    v: PointedSpace
    r: LinMap
    sigma: LinMap
    label: str = ""

    def __post_init__(self) -> None:
        m, n = self.a.dim, self.v.dim
        if self.r.domain_dims != (n, m) or self.r.codomain_dims != (m, n):
            raise ShapeError(
                f"r must map ({n}, {m}) -> ({m}, {n}); got "
                f"{self.r.domain_dims} -> {self.r.codomain_dims}"
            )
        if self.sigma.domain_dims != (n, n) or self.sigma.codomain_dims != (m, n):
            raise ShapeError(
                f"sigma must map ({n}, {n}) -> ({m}, {n}); got "
                f"{self.sigma.domain_dims} -> {self.sigma.codomain_dims}"
            )
        if self.r.field != self.a.field or self.sigma.field != self.a.field:
            raise ShapeError("r and sigma must live over the algebra's field")

    @property
    def field(self) -> Field:
        return self.a.field


@dataclass(frozen=True)
class TwistingMapData:
    """Two algebras A, B and a candidate twisting map R: B(x)A -> A(x)B."""

    a: Algebra
    b: Algebra
    r: LinMap

    def __post_init__(self) -> None:
        m, n = self.a.dim, self.b.dim
        if self.r.domain_dims != (n, m) or self.r.codomain_dims != (m, n):
            raise ShapeError(
                f"twisting map must map ({n}, {m}) -> ({m}, {n}); got "
                f"{self.r.domain_dims} -> {self.r.codomain_dims}"
            )

    @property
    def field(self) -> Field:
        return self.a.field


def _unit_slides(r: LinMap, a: Algebra, point: tuple, name: str):
    """Case streams for R(1 (x) a_k) = a_k (x) 1 and R(x_j (x) 1_A) = 1_A (x) x_j,
    where 1 = ``point`` is the unit of the space named ``name`` (V or B)."""
    field, x, m, n = a.field, name.lower(), a.dim, len(point)
    push = _Wiring((n, m), [(r, 0)]).push
    one, unit = _sparse(field, point).items(), _sparse(field, a.unit).items()

    def left():
        for k in range(m):
            got = push({p * m + k: c for p, c in one})
            want = {k * n + p: c for p, c in one}
            yield (k,), got, want, f"R(1_{name} (x) a_{k}) != a_{k} (x) 1_{name}"

    def right():
        for j in range(n):
            got = push({j * m + i: c for i, c in unit})
            want = {i * n + j: c for i, c in unit}
            yield (j,), got, want, f"R({x}_{j} (x) 1_A) != 1_A (x) {x}_{j}"

    return left(), right()


def _r_mult(x, *_):
    """tw3 and brz3: R(x (x) aa') = (mu (x) id)(id (x) R)(R (x) id), for R: X (x) A -> A (x) X."""
    mu, r = x.a.mult, x.r
    return r.domain_dims + (x.a.dim,), [(mu, 1), (r, 0)], [(r, 0), (r, 1), (mu, 0)]


# tw1 and tw2 are brz1's two slides with B in place of V; check_twisting_map
# hands over both slides, which push through one compiled wiring of R.
_TWISTING_LAWS = _table(
    tw1=lambda t, left, right: left,
    tw2=lambda t, left, right: right,
    tw3=_r_mult,
    tw4=lambda t, *_: ((t.b.dim, t.b.dim, t.a.dim), [(t.b.mult, 0), (t.r, 0)], [(t.r, 1), (t.r, 0), (t.b.mult, 1)]),
)


@_certify_once
def check_twisting_map(t: TwistingMapData) -> AxiomReport:
    """The four twisting-map conditions tw1..tw4, each as an exact identity.
    A passing report is remembered per object."""
    return _run(_TWISTING_LAWS, t, *_unit_slides(t.r, t.a, t.b.unit, "B"))


def twisted_tensor_product(t: TwistingMapData) -> CrossedData:
    """Crossed data of a twisted tensor product: sigma(b, b') = 1_A (x) bb'."""
    for algebra, name in ((t.a, "A"), (t.b, "B")):
        check_algebra(algebra).require(
            InvalidDataError, f"algebra {name} fails {{law}}: {{detail}}"
        )
    check_twisting_map(t).require(InvalidDataError, "twisting map fails {law}: {detail}")
    v = PointedSpace(t.b.dim, t.b.unit, label=t.b.label)
    iota = opposite_unit_insertion(t.a, v)
    return CrossedData(
        a=t.a,
        v=v,
        r=t.r,
        sigma=compose(iota, t.b.mult),
        label=f"{t.a.label}(x){t.b.label} twisted",
    )


def _sigma_units(c: CrossedData):
    """brz2: sigma(1_V, v) = sigma(v, 1_V) = 1_A (x) v, as cases over v_j."""
    n = c.v.dim
    push = _Wiring((n, n), [(c.sigma, 0)]).push
    one, unit = _sparse(c.field, c.v.point).items(), _sparse(c.field, c.a.unit).items()
    for j in range(n):
        want = {i * n + j: x for i, x in unit}
        left = push({p * n + j: x for p, x in one})
        yield (j,), left, want, f"sigma(1_V, v_{j}) != 1_A (x) v_{j}"
        right = push({j * n + p: x for p, x in one})
        yield (j,), right, want, f"sigma(v_{j}, 1_V) != 1_A (x) v_{j}"


def _mu_sigma(c: CrossedData) -> list:
    """mu_sigma = (mu (x) id).(id (x) sigma) on A (x) V (x) V, which ends brz4 and brz5."""
    return [(c.sigma, 1), (c.a.mult, 0)]


_BRZ_LAWS = _table(
    # brz1: R(1_V (x) a) = a (x) 1_V and R(v (x) 1_A) = 1_A (x) v.
    brz1=lambda c: chain(*_unit_slides(c.r, c.a, c.v.point, "V")),
    brz2=_sigma_units,
    brz3=_r_mult,
    brz4=lambda c: ((c.v.dim,) * 3, [(c.sigma, 1), (c.r, 0)] + _mu_sigma(c), [(c.sigma, 0)] + _mu_sigma(c)),
    brz5=lambda c: (
        (c.v.dim, c.v.dim, c.a.dim), [(c.r, 1), (c.r, 0)] + _mu_sigma(c), [(c.sigma, 0), (c.r, 1), (c.a.mult, 0)]
    ),
)


@_certify_once
def check_brz_axioms(c: CrossedData) -> AxiomReport:
    """The five crossed-product conditions, in order, as exact equalities.
    A passing report is remembered per object."""
    return _run(_BRZ_LAWS, c)


def _product_steps(c: CrossedData) -> list:
    """The product on A (x) V as steps on (m, n, m, n): R on the middle legs,
    sigma on the two V legs, then the triple product of A as two steps."""
    return [(c.r, 1), (c.sigma, 2)] + _triple(c.a, 0)


def crossed_mult(c: CrossedData) -> LinMap:
    """The product on A (x) V as a map (m, n, m, n) -> (m, n)."""
    m, n = c.a.dim, c.v.dim
    return _Wiring((m, n, m, n), _product_steps(c)).to_map()


def build_crossed_product(c: CrossedData) -> Algebra:
    """The crossed-product algebra on A (x) V; refuses unverified data."""
    check_algebra(c.a).require(InvalidDataError, "underlying algebra fails {law}: {detail}")
    check_brz_axioms(c).require(InvalidDataError, "crossed data fails {law}: {detail}")
    m, n = c.a.dim, c.v.dim
    mult = reshape(crossed_mult(c), (m * n, m * n), (m * n,))
    return Algebra(
        m * n,
        mult,
        kron_vec(c.field, c.a.unit, c.v.point),
        label=c.label or "crossed product",
    )


def with_r(c: CrossedData, r: LinMap) -> CrossedData:
    return replace(c, r=r)


def with_sigma(c: CrossedData, sigma: LinMap) -> CrossedData:
    return replace(c, sigma=sigma)
