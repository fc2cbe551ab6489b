"""Invariance under twisting: the maps R', sigma', the new crossed product,
and the certified isomorphism between the old and new products.

Given crossed data (A, V, R, sigma) and a pair of maps theta, gamma: V -> A(x)V
subject to four conditions, the twisted data (A, V, R', sigma') is again a
crossed product and phi(a (x) v) = a.theta(v) is an algebra isomorphism onto
the original one.  Every conclusion is certified here by exact identities
between wirings of the maps, compared in batches of basis columns; nothing
is taken on faith from the constructions.  R', sigma' and phi_mult push the
triple product of A as two ``mult`` steps, and phi_mult pushes both products
as steps, so no product map is built; A and the crossed data are each
certified once, as ``report`` remembers passing reports per object.
phi_mult is decided on the n.m.n vectors 1_A (x) x when A passes
``check_algebra``, c' has A's ``mult`` and phi is left A-linear: for each
side L, the product steps end in A's triple product with leg 0 as the
leftmost factor and A is associative, so L(e_i (x) x) = e_i.L(1_A (x) x).
Otherwise, or if those vectors differ, the full scan decides.  The
laws are private tables run by ``report._run``: cros1..cros3 (reused as cros1,
rel2 and rel3 by the specialization), cros4 (run once sigma' is built), the laws
of phi, with a one-sided phi_invertible (see ``_PHI_LAWS``), and the specialization's.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

from .algebra import Algebra, PointedSpace, _triple, check_algebra, opposite_unit_insertion
from .crossed import (
    CrossedData,
    TwistingMapData,
    _product_steps,
    check_brz_axioms,
    check_twisting_map,
    twisted_tensor_product,
)
from .linmap import LinMap, ShapeError, _element, _Wiring, apply, kron_vec, reshape
from .report import AxiomReport, _run, _table, merge


class TwistPreconditionError(ValueError):
    """A required hypothesis fails; the message names the failed condition."""


class TheoremViolationError(RuntimeError):
    """An internally-verified conclusion failed; indicates an implementation bug."""


@dataclass(frozen=True)
class TwistPair:
    """The pair theta, gamma: V -> A (x) V."""

    theta: LinMap
    gamma: LinMap

    def __post_init__(self) -> None:
        for name, f in (("theta", self.theta), ("gamma", self.gamma)):
            if len(f.domain_dims) != 1 or len(f.codomain_dims) != 2:
                raise ShapeError(f"{name} must map (n,) -> (m, n); got {f.domain_dims} -> {f.codomain_dims}")
        if self.theta.domain_dims != self.gamma.domain_dims or self.theta.codomain_dims != self.gamma.codomain_dims:
            raise ShapeError("theta and gamma must have identical shapes")


@dataclass(frozen=True)
class TwistResult:
    r_prime: LinMap
    sigma_prime: LinMap
    data_prime: CrossedData
    phi: LinMap
    phi_inverse: LinMap
    # apply_twist's certificate: brz1..brz5 of data_prime and the laws of phi
    conclusion: AxiomReport = dc_field(default_factory=AxiomReport, compare=False)


def trivial_pair(a: Algebra, v: PointedSpace) -> TwistPair:
    iota = opposite_unit_insertion(a, v)
    return TwistPair(theta=iota, gamma=iota)


def phi_map(a: Algebra, chi: LinMap) -> LinMap:
    """The endomorphism of A (x) V sending a (x) v to a.chi(v)."""
    return _Wiring((a.dim,) + chi.domain_dims, [(chi, 1), (a.mult, 0)]).to_map()


def make_r_prime(c: CrossedData, t: TwistPair) -> LinMap:
    """R' = (mu2 (x) id).(id (x) id (x) gamma).(id (x) R).(theta (x) id),
    with mu2 the triple product of A as two steps."""
    steps = [(t.theta, 0), (c.r, 1), (t.gamma, 2)] + _triple(c.a, 0)
    return _Wiring((c.v.dim, c.a.dim), steps).to_map()


def make_sigma_prime(c: CrossedData, t: TwistPair) -> LinMap:
    """sigma' = (mu (x) id).(id (x) gamma) applied after the old product of theta-images."""
    steps = [(t.theta, 0), (t.theta, 2)] + _product_steps(c) + [(t.gamma, 1), (c.a.mult, 0)]
    return _Wiring((c.v.dim, c.v.dim), steps).to_map()


def _pair_units(a: Algebra, v: PointedSpace, t: TwistPair, *_):
    """cros1: theta and gamma both send 1_V to 1_A (x) 1_V."""
    want = kron_vec(a.field, a.unit, v.point)
    for name, f in (("theta", t.theta), ("gamma", t.gamma)):
        yield (), apply(f, v.point), want, f"{name}(1_V) != 1_A (x) 1_V"


# The pair's conditions, as functions of (A, V, pair, iota: v -> 1_A (x) v); by cros2
# and cros3 the product of the images of theta and gamma, in either order, is iota.
_PAIR_LAWS = _table(
    cros1=_pair_units,
    cros2=lambda a, v, t, iota, *_: ((v.dim,), [(t.theta, 0), (t.gamma, 1), (a.mult, 0)], [(iota, 0)]),
    cros3=lambda a, v, t, iota, *_: ((v.dim,), [(t.gamma, 0), (t.theta, 1), (a.mult, 0)], [(iota, 0)]),
)


_CROS4_LAWS = _table(
    cros4=lambda c, t, sigma_prime: (
        (c.v.dim,) * 2,
        [(t.gamma, 1), (c.r, 0), (t.gamma, 1), (sigma_prime, 2), (c.a.mult, 0), (c.a.mult, 0)],
        [(c.sigma, 0), (t.gamma, 1), (c.a.mult, 0)],
    )
)


def check_twist_conditions(c: CrossedData, t: TwistPair) -> AxiomReport:
    """All four twisting hypotheses; cros4 is evaluated against sigma' itself."""
    return _twist_conditions(c, t)[0]


def _twist_conditions(c: CrossedData, t: TwistPair) -> tuple[AxiomReport, LinMap]:
    """cros1..cros4 together with the sigma' that cros4 was checked against."""
    m, n = c.a.dim, c.v.dim
    if t.theta.domain_dims != (n,) or t.theta.codomain_dims != (m, n):
        raise ShapeError(
            f"pair must map ({n},) -> ({m}, {n}); got {t.theta.domain_dims} -> {t.theta.codomain_dims}"
        )
    pair = _run(_PAIR_LAWS, c.a, c.v, t, opposite_unit_insertion(c.a, c.v))
    sigma_prime = make_sigma_prime(c, t)
    return merge(pair.checks, _run(_CROS4_LAWS, c, t, sigma_prime).checks), sigma_prime


def _phi_unital(c: CrossedData, result: TwistResult):
    one = kron_vec(c.field, c.a.unit, c.v.point)
    yield (), apply(result.phi, one), one, "phi(1 (x) 1) != 1 (x) 1"


def _phi_mult(c: CrossedData, result: TwistResult):
    """phi_mult on the product steps of both data; phi may come with any factor
    list of total mn, and the column is reported on phi's own legs.

    The law is first run on the n.m.n vectors 1_A (x) x only.  Let A pass
    ``check_algebra``, let c' have A's ``mult`` and let phi be left A-linear,
    phi(a (x) v) = a.phi(1_A (x) v).  Each side L then has L(e_i (x) x) =
    e_i.L(1_A (x) x): the product steps of either data end in A's triple
    product with leg 0 as the leftmost factor, so A's associativity (and, on
    the right, 1_A as a left unit) takes e_i out in front of the product, and
    phi, being left A-linear, takes it out in front of phi.  So agreement on
    the vectors 1_A (x) x is agreement on every column.  If a precondition
    fails, or those vectors tell the sides apart, the full scan decides and
    names the column.
    """
    m, n = c.a.dim, c.v.dim
    square = reshape(result.phi, (m, n), (m, n))
    lhs = [(square, 0), (square, 2)] + _product_steps(c)
    rhs = _product_steps(result.data_prime) + [(square, 0)]
    a, unit, reduced = c.a, _element(c.field, (m,), c.a.unit), None
    if (
        check_algebra(a).passed
        and result.data_prime.a.mult == a.mult
        and _Wiring((m, n), [(square, 0)]).first_difference([(unit, 1), (square, 1), (a.mult, 0)]) is None
    ):
        reduced = (n, m, n), [(unit, 0)] + lhs, [(unit, 0)] + rhs
    return (m, n, m, n), lhs, rhs, result.phi.domain_dims * 2, reduced


# phi_invertible checks phi . phi^-1 = id only: when a report is returned, phi
# is mn x mn (phi_mult reshapes it) and so is phi^-1 (this comparison matches
# totals), and over a field a right inverse of a square matrix is also a left
# inverse, so phi^-1 . phi = id adds no verdict and no counterexample.
_PHI_LAWS = _table(
    phi_invertible=lambda c, r: (r.phi_inverse.domain_dims, [(r.phi_inverse, 0), (r.phi, None)], []),
    phi_unital=_phi_unital,
    phi_mult=_phi_mult,
)


def verify_twist_result(c: CrossedData, result: TwistResult) -> AxiomReport:
    """Re-check a twist outcome: the five axioms for the new data plus the
    three isomorphism identities for phi against both products."""
    return merge(check_brz_axioms(result.data_prime).checks, _run(_PHI_LAWS, c, result).checks)


def apply_twist(c: CrossedData, t: TwistPair) -> TwistResult:
    """Run the full twist: validate hypotheses, build (R', sigma'), certify phi.

    Raises :class:`TwistPreconditionError` when a hypothesis fails, with the
    brz1..brz5 and cros1..cros4 checks as its ``report``, and
    :class:`TheoremViolationError` if any certified conclusion fails, which
    cannot happen on valid inputs unless the implementation is wrong.
    """
    check_algebra(c.a).require(TwistPreconditionError, "underlying algebra fails {law}: {detail}")
    crossed = check_brz_axioms(c)
    conditions, sigma_prime = _twist_conditions(c, t)
    merge(crossed.checks, conditions.checks).require(
        TwistPreconditionError, "twist hypothesis {law} fails: {detail}"
    )

    r_prime = make_r_prime(c, t)
    result = TwistResult(
        r_prime=r_prime,
        sigma_prime=sigma_prime,
        data_prime=CrossedData(a=c.a, v=c.v, r=r_prime, sigma=sigma_prime, label=c.label),
        phi=phi_map(c.a, t.theta),
        phi_inverse=phi_map(c.a, t.gamma),
    )
    conclusion = verify_twist_result(c, result)
    conclusion.require(
        TheoremViolationError, "certified conclusion {law} failed on valid inputs: {detail}"
    )
    return replace(result, conclusion=conclusion)


# The specialization's laws, as functions of (A, V = B as a pointed space, pair, iota,
# twisting-map data, star, the twisted tensor product); rel2, rel3 are cros2, cros3.
_TTP_LAWS = _table(
    cros1=_pair_units,
    theta_mult=lambda a, v, pair, iota, t, star, data: (
        (v.dim,) * 2, [(star, 0), (pair.theta, 0)], [(pair.theta, 0), (pair.theta, 2)] + _product_steps(data)
    ),
    # rel1: gamma of a product, rewritten through R and the star product.
    rel1=lambda a, v, pair, iota, t, star, data: (
        (v.dim,) * 2,
        [(t.b.mult, 0), (pair.gamma, 0)],
        [(pair.gamma, 1), (t.r, 0), (pair.gamma, 1), (star, 2), (a.mult, 0)],
    ),
    rel2=_PAIR_LAWS["cros2"],
    rel3=_PAIR_LAWS["cros3"],
    sigma_prime_ttp=lambda a, v, pair, iota, t, star, data: (
        (v.dim,) * 2, [(make_sigma_prime(data, pair), 0)], [(star, 0), (iota, 0)]
    ),
)


def specialize_ttp(t: TwistingMapData, star: LinMap, pair: TwistPair) -> AxiomReport:
    """Twisted-tensor-product specialization of the twist theorem.

    Checks that theta is an algebra map from (B, star) into the twisted tensor
    product, the unit conditions, rel1..rel3, and the derived identity
    sigma'(b, b') = 1_A (x) (b star b').
    """
    check_twisting_map(t).require(TwistPreconditionError, "twisting map fails {law}: {detail}")
    nb = t.b.dim
    if star.domain_dims != (nb, nb) or star.codomain_dims != (nb,):
        raise ShapeError(
            f"star must map ({nb}, {nb}) -> ({nb},); got {star.domain_dims} -> {star.codomain_dims}"
        )
    b_star = Algebra(nb, star, t.b.unit, label="B-star")
    check_algebra(b_star).require(
        TwistPreconditionError, "star multiplication fails {law} with the unit of B: {detail}"
    )

    data = twisted_tensor_product(t)
    return _run(_TTP_LAWS, t.a, data.v, pair, opposite_unit_insertion(t.a, data.v), t, star, data)
