"""Crossed-product data (A, V, R, sigma), its five axioms, and the product algebra.

The five conditions are evaluated as exact equalities of composite matrices;
the two unit conditions are applied to slices at the distinguished elements so
failure indices stay interpretable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

from .algebra import Algebra, PointedSpace, check_algebra, mu2, opposite_unit_insertion
from .fields import Field
from .linmap import (
    LinMap,
    ShapeError,
    apply,
    basis_vector,
    compose,
    identity,
    kron_vec,
    reshape,
    tensor_map,
)
from .report import AxiomReport, LawCheck, law_from_maps


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
    field, x = a.field, name.lower()

    def left():
        for k in range(a.dim):
            e = basis_vector(field, a.dim, k)
            got = apply(r, kron_vec(field, point, e))
            want = kron_vec(field, e, point)
            yield (k,), got, want, f"R(1_{name} (x) a_{k}) != a_{k} (x) 1_{name}"

    def right():
        for j in range(len(point)):
            e = basis_vector(field, len(point), j)
            got = apply(r, kron_vec(field, e, a.unit))
            want = kron_vec(field, a.unit, e)
            yield (j,), got, want, f"R({x}_{j} (x) 1_A) != 1_A (x) {x}_{j}"

    return left(), right()


def _r_mult_law(law: str, r: LinMap, a: Algebra, n: int) -> LawCheck:
    """R(x (x) aa') = (mu (x) id)(id (x) R)(R (x) id), on X (x) A (x) A with dim X = n."""
    id_a, id_x = identity(a.field, (a.dim,)), identity(a.field, (n,))
    return law_from_maps(
        law,
        compose(r, tensor_map(id_x, a.mult)),
        compose(
            tensor_map(a.mult, id_x),
            compose(tensor_map(id_a, r), tensor_map(r, id_a)),
        ),
    )


def check_twisting_map(t: TwistingMapData) -> AxiomReport:
    """The four twisting-map conditions tw1..tw4, each as an exact identity.

    tw1..tw3 are brz1 and brz3 with B in place of V."""
    id_a, id_b = identity(t.field, (t.a.dim,)), identity(t.field, (t.b.dim,))
    left, right = _unit_slides(t.r, t.a, t.b.unit, "B")
    return AxiomReport(
        (
            LawCheck.from_vectors("tw1", left),
            LawCheck.from_vectors("tw2", right),
            _r_mult_law("tw3", t.r, t.a, t.b.dim),
            law_from_maps(
                "tw4",
                compose(t.r, tensor_map(t.b.mult, id_a)),
                compose(
                    tensor_map(id_a, t.b.mult),
                    compose(tensor_map(t.r, id_b), tensor_map(id_b, t.r)),
                ),
            ),
        )
    )


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


def check_brz_axioms(c: CrossedData) -> AxiomReport:
    """The five crossed-product conditions, in order, as exact equalities."""
    field = c.field
    m, n = c.a.dim, c.v.dim
    id_a, id_v = identity(field, (m,)), identity(field, (n,))
    mu = c.a.mult

    # brz1: R(1_V (x) a) = a (x) 1_V and R(v (x) 1_A) = 1_A (x) v.
    checks = [LawCheck.from_vectors("brz1", chain(*_unit_slides(c.r, c.a, c.v.point, "V")))]

    # brz2: sigma(1_V, v) = sigma(v, 1_V) = 1_A (x) v.
    def sigma_units():
        for j in range(n):
            e_j = basis_vector(field, n, j)
            want = kron_vec(field, c.a.unit, e_j)
            left = apply(c.sigma, kron_vec(field, c.v.point, e_j))
            yield (j,), left, want, f"sigma(1_V, v_{j}) != 1_A (x) v_{j}"
            right = apply(c.sigma, kron_vec(field, e_j, c.v.point))
            yield (j,), right, want, f"sigma(v_{j}, 1_V) != 1_A (x) v_{j}"

    checks.append(LawCheck.from_vectors("brz2", sigma_units()))
    checks.append(_r_mult_law("brz3", c.r, c.a, n))

    mu_sigma = compose(tensor_map(mu, id_v), tensor_map(id_a, c.sigma))
    checks.append(
        law_from_maps(
            "brz4",
            compose(mu_sigma, compose(tensor_map(c.r, id_v), tensor_map(id_v, c.sigma))),
            compose(mu_sigma, tensor_map(c.sigma, id_v)),
        )
    )
    checks.append(
        law_from_maps(
            "brz5",
            compose(mu_sigma, compose(tensor_map(c.r, id_v), tensor_map(id_v, c.r))),
            compose(
                compose(tensor_map(mu, id_v), tensor_map(id_a, c.r)),
                tensor_map(c.sigma, id_a),
            ),
        )
    )
    return AxiomReport(tuple(checks))


def _product_legs(c: CrossedData) -> tuple[LinMap, LinMap, LinMap]:
    """mu2 (x) id, id (x) id (x) sigma and id (x) R (x) id; their composite,
    in this order from the left, is the product on A (x) V."""
    id_a, id_v = identity(c.field, (c.a.dim,)), identity(c.field, (c.v.dim,))
    return (
        tensor_map(mu2(c.a), id_v),
        tensor_map(tensor_map(id_a, id_a), c.sigma),
        tensor_map(tensor_map(id_a, c.r), id_v),
    )


def crossed_mult(c: CrossedData) -> LinMap:
    """The product on A (x) V as a map (m, n, m, n) -> (m, n)."""
    mu2_v, sigma, r = _product_legs(c)
    return compose(compose(mu2_v, sigma), r)


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
