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
from .linmap import LinMap, ShapeError, _Wiring, apply, kron_vec, reshape
from .report import AxiomReport, LawCheck, law_from_maps, merge


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


def check_pair_units(a: Algebra, v: PointedSpace, t: TwistPair) -> LawCheck:
    """Condition cros1: theta and gamma both send 1_V to 1_A (x) 1_V."""
    want = kron_vec(a.field, a.unit, v.point)
    cases = (
        ((), apply(f, v.point), want, f"{name}(1_V) != 1_A (x) 1_V")
        for name, f in (("theta", t.theta), ("gamma", t.gamma))
    )
    return LawCheck.from_vectors("cros1", cases)


def check_mutual_inverse(a: Algebra, v: PointedSpace, t: TwistPair) -> tuple[LawCheck, LawCheck]:
    """Conditions cros2 and cros3 as map equalities against the unit insertion."""
    iota = [(opposite_unit_insertion(a, v), 0)]
    cros2 = law_from_maps("cros2", (v.dim,), [(t.theta, 0), (t.gamma, 1), (a.mult, 0)], iota)
    cros3 = law_from_maps("cros3", (v.dim,), [(t.gamma, 0), (t.theta, 1), (a.mult, 0)], iota)
    return cros2, cros3


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
    checks = [check_pair_units(c.a, c.v, t)]
    checks.extend(check_mutual_inverse(c.a, c.v, t))

    # cros4 references sigma', so it is computed first.
    sigma_prime = make_sigma_prime(c, t)
    mu, gamma = c.a.mult, t.gamma
    lhs = [(gamma, 1), (c.r, 0), (gamma, 1), (sigma_prime, 2), (mu, 0), (mu, 0)]
    rhs = [(c.sigma, 0), (gamma, 1), (mu, 0)]
    checks.append(law_from_maps("cros4", (n, n), lhs, rhs))
    return AxiomReport(tuple(checks)), sigma_prime


def verify_twist_result(c: CrossedData, result: TwistResult) -> AxiomReport:
    """Re-check a twist outcome: the five axioms for the new data plus the
    three isomorphism identities for phi against both products."""
    field = c.field
    checks = list(check_brz_axioms(result.data_prime).checks)

    phi, phi_inverse = result.phi, result.phi_inverse
    fwd = [(phi_inverse, 0), (phi, None)]
    invertible = law_from_maps("phi_invertible", phi_inverse.domain_dims, fwd, [])
    if invertible.passed:
        bwd = [(phi, 0), (phi_inverse, None)]
        invertible = law_from_maps("phi_invertible", phi.domain_dims, bwd, [])
    checks.append(invertible)

    one = kron_vec(field, c.a.unit, c.v.point)
    unital = ((), apply(phi, one), one, "phi(1 (x) 1) != 1 (x) 1")
    checks.append(LawCheck.from_vectors("phi_unital", [unital]))

    # phi_mult on the product steps of both data; phi may come with any factor
    # list of total mn, and the column is reported on phi's own legs.
    m, n = c.a.dim, c.v.dim
    square = reshape(phi, (m, n), (m, n))
    lhs = [(square, 0), (square, 2)] + _product_steps(c)
    rhs = _product_steps(result.data_prime) + [(square, 0)]
    checks.append(law_from_maps("phi_mult", (m, n, m, n), lhs, rhs, phi.domain_dims * 2))
    return AxiomReport(tuple(checks))


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
    theta, gamma = pair.theta, pair.gamma

    checks = [check_pair_units(t.a, data.v, pair)]
    checks.append(
        law_from_maps(
            "theta_mult",
            (nb, nb),
            [(star, 0), (theta, 0)],
            [(theta, 0), (theta, 2)] + _product_steps(data),
        )
    )

    # rel1: gamma of a product, rewritten through R and the star product.
    rhs = [(gamma, 1), (t.r, 0), (gamma, 1), (star, 2), (t.a.mult, 0)]
    checks.append(law_from_maps("rel1", (nb, nb), [(t.b.mult, 0), (gamma, 0)], rhs))

    mutual = check_mutual_inverse(t.a, data.v, pair)
    checks.extend(replace(c, law=law) for law, c in zip(("rel2", "rel3"), mutual))

    iota = opposite_unit_insertion(t.a, data.v)
    sigma_prime = make_sigma_prime(data, pair)
    rhs = [(star, 0), (iota, 0)]
    checks.append(law_from_maps("sigma_prime_ttp", (nb, nb), [(sigma_prime, 0)], rhs))
    return AxiomReport(tuple(checks))

