"""Built-in example families: smash products of quasi-bialgebras acting on
module algebras, gauge twists of both, and twisted tensor products.

The public constructors check their inputs, rejecting with the name of the
violated law, and certify their outputs.  Each is a thin layer of checks over
a private builder that only builds and certifies its own output;
``builtin_corpus`` calls the builders on inputs it has already certified, so
it certifies each object once.  Corpus generation is deterministic: the same
field yields byte-identical instances on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .algebra import Algebra, PointedSpace, algebra_from_group, check_algebra, tensor_elem_product
from .crossed import CrossedData, TwistingMapData, twisted_tensor_product
from .fields import Field, Rationals, Scalar
from .linmap import LinMap, MapBuilder, ShapeError, _element, _from_columns, _Wiring, apply, flip, kron_vec
from .twist import TheoremViolationError, TwistPair, trivial_pair


class CorpusError(ValueError):
    """Input data violates a required law; the message names it."""


@dataclass(frozen=True)
class QuasiBialgebra:
    """An algebra with comultiplication, counit and an invertible associator.

    Coassociativity is only required up to conjugation by the associator.
    """

    algebra: Algebra
    comult: LinMap
    counit: LinMap
    associator: tuple[Scalar, ...]
    associator_inverse: tuple[Scalar, ...]
    label: str = ""

    def __post_init__(self) -> None:
        m = self.algebra.dim
        if self.comult.domain_dims != (m,) or self.comult.codomain_dims != (m, m):
            raise ShapeError(f"comult must map ({m},) -> ({m}, {m})")
        if self.counit.domain_dims != (m,) or self.counit.codomain_dims != (1,):
            raise ShapeError(f"counit must map ({m},) -> (1,)")
        if len(self.associator) != m**3 or len(self.associator_inverse) != m**3:
            raise ShapeError(f"associator must have {m ** 3} coordinates")

    @property
    def field(self) -> Field:
        return self.algebra.field


@dataclass(frozen=True)
class GaugeTransformation:
    """A counital invertible element of H (x) H, given with its inverse."""

    f: tuple[Scalar, ...]
    f_inverse: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if len(self.f) != len(self.f_inverse):
            raise ShapeError("gauge element and inverse must have equal length")


@dataclass(frozen=True)
class RightModuleAlgebra:
    """A not-necessarily-associative algebra carrying a right action of H.

    The multiplication is only associative up to the associator of the acting
    quasi-bialgebra, so no plain associativity is demanded here.
    """

    dim: int
    mult: LinMap
    unit: tuple[Scalar, ...]
    action: LinMap
    label: str = ""

    def __post_init__(self) -> None:
        nb = self.dim
        if self.mult.domain_dims != (nb, nb) or self.mult.codomain_dims != (nb,):
            raise ShapeError(f"multiplication must map ({nb}, {nb}) -> ({nb},)")
        if len(self.action.domain_dims) != 2 or self.action.domain_dims[0] != nb:
            raise ShapeError(f"action must map ({nb}, dim H) -> ({nb},)")
        if self.action.codomain_dims != (nb,):
            raise ShapeError(f"action must land in ({nb},)")
        if len(self.unit) != nb:
            raise ShapeError("unit length mismatch")

    @property
    def field(self) -> Field:
        return self.mult.field

    @property
    def acting_dim(self) -> int:
        return self.action.domain_dims[1]


def _differ(legs: Sequence[int], lhs, rhs) -> bool:
    """Whether two wirings of (map, lead) steps on ``legs`` differ anywhere."""
    return _Wiring(legs, lhs).first_difference(rhs) is not None


def _on_leg(f: LinMap, lead: int, elem: Sequence[Scalar], k: int) -> tuple[Scalar, ...]:
    """``f`` applied to leg ``lead`` of an element of the k-fold tensor power of its domain."""
    return _Wiring(f.domain_dims * k, [(f, lead)]).apply(elem)


def quasi_bialgebra_violations(q: QuasiBialgebra) -> list[str]:
    """Core laws: algebra maps, counit laws, invertible associator,
    quasi-coassociativity, and the counit normalizations of the associator."""
    field = q.field
    m = q.algebra.dim
    mult, comult, counit = q.algebra.mult, q.comult, q.counit
    out: list[str] = []

    rep = check_algebra(q.algebra)
    if not rep.passed:
        out.append(f"underlying algebra fails {rep.failures[0].law}")

    # the product of H (x) H swaps the middle legs, then multiplies each pair
    h2_products = [(comult, 0), (comult, 2), (flip(field, m, m), 1), (mult, 2), (mult, 0)]
    if _differ((m, m), [(mult, 0), (comult, 0)], h2_products):
        out.append("comult_algebra_map: comultiplication is not multiplicative")
    if apply(comult, q.algebra.unit) != kron_vec(field, q.algebra.unit, q.algebra.unit):
        out.append("comult_algebra_map: comultiplication does not preserve the unit")

    if _differ((m, m), [(mult, 0), (counit, 0)], [(counit, 0), (counit, 1)]):
        out.append("counit_algebra_map: counit is not multiplicative")
    if apply(counit, q.algebra.unit) != (field.one(),):
        out.append("counit_algebra_map: counit of the unit is not 1")

    if any(_differ((m,), [(comult, 0), (counit, slot)], []) for slot in (0, 1)):
        out.append("counit_laws: (counit (x) id).comult or (id (x) counit).comult != id")

    unit3 = kron_vec(field, kron_vec(field, q.algebra.unit, q.algebra.unit), q.algebra.unit)
    if not (
        tensor_elem_product(q.algebra, 3, q.associator, q.associator_inverse)
        == unit3
        == tensor_elem_product(q.algebra, 3, q.associator_inverse, q.associator)
    ):
        out.append("associator_invertible: associator * inverse != unit")

    co2_left = _Wiring((m,), [(comult, 0), (comult, 0)]).to_map()
    co2_right = _Wiring((m,), [(comult, 0), (comult, 1)]).to_map()
    for k in range(m):
        lhs = tensor_elem_product(q.algebra, 3, q.associator, co2_left.column(k))
        rhs = tensor_elem_product(q.algebra, 3, co2_right.column(k), q.associator)
        if lhs != rhs:
            out.append(f"quasi_coassociativity: fails on basis element {k}")
            break

    unit2 = kron_vec(field, q.algebra.unit, q.algebra.unit)
    for name, elem in (("associator", q.associator), ("associator_inverse", q.associator_inverse)):
        for slot in range(3):
            if _on_leg(counit, slot, elem, 3) != unit2:
                out.append(f"associator_counital: counit in slot {slot} of {name} != 1 (x) 1")
    return out


def pentagon_violations(q: QuasiBialgebra) -> list[str]:
    """The pentagon law, reported separately from the core laws."""
    field = q.field
    phi, unit = q.associator, q.algebra.unit
    lhs = tensor_elem_product(q.algebra, 4, _on_leg(q.comult, 2, phi, 3), _on_leg(q.comult, 0, phi, 3))
    rhs = tensor_elem_product(
        q.algebra,
        4,
        kron_vec(field, unit, phi),
        _on_leg(q.comult, 1, phi, 3),
        kron_vec(field, phi, unit),
    )
    if lhs != rhs:
        return ["pentagon: the two reassociation paths differ"]
    return []


def gauge_violations(q: QuasiBialgebra, f: GaugeTransformation) -> list[str]:
    field = q.field
    m = q.algebra.dim
    out: list[str] = []
    if len(f.f) != m * m:
        return [f"gauge_shape: expected length {m * m}, got {len(f.f)}"]
    unit2 = kron_vec(field, q.algebra.unit, q.algebra.unit)
    if not (
        tensor_elem_product(q.algebra, 2, f.f, f.f_inverse)
        == unit2
        == tensor_elem_product(q.algebra, 2, f.f_inverse, f.f)
    ):
        out.append("gauge_invertible: F * F^{-1} != 1 (x) 1")
    left, right = (_on_leg(q.counit, slot, f.f, 2) for slot in (0, 1))
    if not left == right == q.algebra.unit:
        out.append("gauge_counital: a counit contraction of F is not the unit")
    return out


def module_algebra_violations(q: QuasiBialgebra, b: RightModuleAlgebra) -> list[str]:
    """Laws making B an algebra in right H-modules, with associativity twisted
    by the associator of H."""
    field = q.field
    m, nb = q.algebra.dim, b.dim
    out: list[str] = []
    if b.acting_dim != m:
        return [f"action_shape: acts on dimension {b.acting_dim}, bialgebra has {m}"]

    act = b.action
    unit_h, unit_b = _element(field, (m,), q.algebra.unit), _element(field, (nb,), b.unit)
    diff = _Wiring((nb,), [(unit_h, 1), (act, 0)]).first_difference([])
    if diff is not None:
        out.append("action_unital: b_{j} . 1_H != b_{j}".format(j=diff[0][0]))
    diff = _Wiring((m,), [(unit_b, 0), (act, 0)]).first_difference([(q.counit, 0), (unit_b, None)])
    if diff is not None:
        out.append("unit_action: 1_B . h_{k} != counit(h_{k}) 1_B".format(k=diff[0][0]))

    if _differ((nb, m, m), [(act, 0), (act, 0)], [(q.algebra.mult, 1), (act, 0)]):
        out.append("module_law: (b . h) . h' != b . (h h')")

    # (b . h_1)(b' . h_2): split h, swap it past b', act on each factor, multiply
    split = [(q.comult, 2), (flip(field, nb, m), 1), (act, 2), (act, 0), (b.mult, 0)]
    if _differ((nb, nb, m), [(b.mult, 0), (act, 0)], split):
        out.append("mult_action_compatible: (b b') . h != (b . h_1)(b' . h_2)")

    twisted = _acting(b, q.associator_inverse, lead=0, legs=3) + [(b.mult, 1), (b.mult, 0)]
    if _differ((nb,) * 3, [(b.mult, 0), (b.mult, 0)], twisted):
        out.append("assoc_twisted: (b b') b'' != (b . x1)((b' . x2)(b'' . x3))")
    return out


def _acting(b: RightModuleAlgebra, x: Sequence[Scalar], lead: int, legs: int) -> list:
    """Steps B^(x)L -> H^(x)lead (x) B^(x)L, L = ``legs``, for an element x
    of H^(x)(lead + L): its last L tensor legs x_1 .. x_L act on the B legs
    b_1 .. b_L one by one, its first ``lead`` legs are kept as H legs.

    x is inserted just before b_L, so that x_L (x) b_L are adjacent and the
    action, with a flip in front so that it takes its H leg first, joins them
    at once.  Then, from b_(L-1) down to b_1, each b_i is flipped right past
    the H legs and x_1 .. x_(i-1), and acts with x_i.  Acting first shrinks
    the pushed vectors before most flips.
    """
    field, m, nb = b.field, b.acting_dim, b.dim
    last = _Wiring((m, nb), [(flip(field, m, nb), 0), (b.action, 0)]).to_map()
    steps = [(_element(field, (m,) * (lead + legs), x), legs - 1), (last, lead + 2 * legs - 2)]
    swap = flip(field, nb, m) if lead + legs > 2 else None  # no flip step below otherwise
    for i in range(legs - 1, 0, -1):  # legs: b_1 .. b_i, the H legs, x_1 .. x_i, acted legs
        steps += [(swap, at) for at in range(i - 1, lead + 2 * i - 2)]
        steps.append((b.action, lead + 2 * i - 2))
    return steps


def _require(violations: list[str], error: type[Exception], prefix: str) -> None:
    if violations:
        raise error(prefix + violations[0])


def smash_product_data(h: QuasiBialgebra, b: RightModuleAlgebra) -> CrossedData:
    """Crossed data of the smash product of H acting on B from the right:
    R(b (x) h) = h_1 (x) b . h_2 and sigma(b, b') = x1 (x) (b . x2)(b' . x3)
    summed over the inverse associator x1 (x) x2 (x) x3."""
    _require(quasi_bialgebra_violations(h), CorpusError, "quasi-bialgebra: ")
    _require(module_algebra_violations(h, b), CorpusError, "module algebra: ")
    return _smash_product_data(h, b)


def _smash_product_data(h: QuasiBialgebra, b: RightModuleAlgebra) -> CrossedData:
    field = h.field
    m, nb = h.algebra.dim, b.dim
    r = _Wiring((nb, m), [(h.comult, 1), (flip(field, nb, m), 0), (b.action, 1)]).to_map()
    steps = _acting(b, h.associator_inverse, lead=1, legs=2) + [(b.mult, 1)]
    sigma = _Wiring((nb, nb), steps).to_map()

    return CrossedData(
        a=h.algebra,
        v=PointedSpace(nb, b.unit, label=b.label),
        r=r,
        sigma=sigma,
        label=f"{h.label or h.algebra.label}#{b.label}",
    )


def drinfeld_twist(h: QuasiBialgebra, f: GaugeTransformation) -> QuasiBialgebra:
    """Twist of the comultiplication and associator by a gauge element."""
    _require(quasi_bialgebra_violations(h), CorpusError, "quasi-bialgebra: ")
    _require(gauge_violations(h, f), CorpusError, "gauge transformation: ")
    return _drinfeld_twist(h, f)


def _drinfeld_twist(h: QuasiBialgebra, f: GaugeTransformation) -> QuasiBialgebra:
    alg = h.algebra
    field, m = alg.field, alg.dim

    cols = (tensor_elem_product(alg, 2, f.f, h.comult.column(k), f.f_inverse) for k in range(m))
    comult_f = _from_columns(field, (m,), (m, m), [{i: x for i, x in enumerate(c) if x} for c in cols])
    phi_f = tensor_elem_product(
        alg,
        3,
        kron_vec(field, alg.unit, f.f),
        _on_leg(h.comult, 1, f.f, 2),
        h.associator,
        _on_leg(h.comult, 0, f.f_inverse, 2),
        kron_vec(field, f.f_inverse, alg.unit),
    )
    phi_f_inv = tensor_elem_product(
        alg,
        3,
        kron_vec(field, f.f, alg.unit),
        _on_leg(h.comult, 0, f.f, 2),
        h.associator_inverse,
        _on_leg(h.comult, 1, f.f_inverse, 2),
        kron_vec(field, alg.unit, f.f_inverse),
    )

    twisted = replace(h, comult=comult_f, associator=phi_f, associator_inverse=phi_f_inv)
    _require(quasi_bialgebra_violations(twisted), TheoremViolationError, "twisted quasi-bialgebra fails ")
    return twisted


def module_algebra_twist(
    h: QuasiBialgebra, b: RightModuleAlgebra, f: GaugeTransformation
) -> RightModuleAlgebra:
    """Deformed multiplication b * b' = (b . F1)(b' . F2); unit and action kept."""
    _require(module_algebra_violations(h, b), CorpusError, "module algebra: ")
    _require(gauge_violations(h, f), CorpusError, "gauge transformation: ")
    _require(quasi_bialgebra_violations(h), CorpusError, "quasi-bialgebra: ")
    return _module_algebra_twist(_drinfeld_twist(h, f), b, f)


def _module_algebra_twist(
    hf: QuasiBialgebra, b: RightModuleAlgebra, f: GaugeTransformation
) -> RightModuleAlgebra:
    """The twisted B over ``hf``, the Drinfeld twist of H by f."""
    steps = _acting(b, f.f, lead=0, legs=2) + [(b.mult, 0)]
    twisted = replace(b, mult=_Wiring((b.dim, b.dim), steps).to_map())
    _require(module_algebra_violations(hf, twisted), TheoremViolationError, "twisted module algebra fails ")
    return twisted


def gauge_twist_pair(b: RightModuleAlgebra, f: GaugeTransformation) -> TwistPair:
    """theta(b) = F1 (x) b . F2 and gamma(b) = G1 (x) b . G2."""
    m, nb = b.acting_dim, b.dim
    if len(f.f) != m * m:
        raise ShapeError(f"gauge element length {len(f.f)} does not match H dimension {m}")
    theta, gamma = (_Wiring((nb,), _acting(b, x, lead=1, legs=1)).to_map() for x in (f.f, f.f_inverse))
    return TwistPair(theta=theta, gamma=gamma)


def group_like_bialgebra(alg: Algebra, label: str = "") -> QuasiBialgebra:
    """Group algebra viewed as a quasi-bialgebra with trivial associator."""
    field, m, one = alg.field, alg.dim, alg.field.one()
    comult = _from_columns(field, (m,), (m, m), [{k * m + k: one} for k in range(m)])
    counit = _from_columns(field, (m,), (1,), [{0: one} for _ in range(m)])
    unit3 = kron_vec(field, kron_vec(field, alg.unit, alg.unit), alg.unit)
    return QuasiBialgebra(
        algebra=alg,
        comult=comult,
        counit=counit,
        associator=unit3,
        associator_inverse=unit3,
        label=label or alg.label,
    )


@dataclass(frozen=True)
class CorpusInstance:
    """A named, ready-to-verify bundle of crossed data and twisting inputs."""

    name: str
    tags: tuple[str, ...]
    description: str
    data: CrossedData
    pair: TwistPair | None = None
    twisting: TwistingMapData | None = None
    star: LinMap | None = None
    quasi: QuasiBialgebra | None = None
    module_algebra: RightModuleAlgebra | None = None
    gauge: GaugeTransformation | None = None


C2_TABLE = ((0, 1), (1, 0))
V4_TABLE = tuple(tuple(i ^ j for j in range(4)) for i in range(4))


def _sign_action(field: Field, b: Algebra, h_dim: int, sign_of: Sequence[int]) -> RightModuleAlgebra:
    """k[C2] acted on by a group: element q fixes e and scales u by sign_of[q]."""
    one, zero = field.one(), field.zero()
    builder = MapBuilder(field, (2, h_dim), (2,))
    for q in range(h_dim):
        builder.add(0, 0 * h_dim + q, one)
        sign = one if sign_of[q] == 1 else field.neg(one)
        builder.add(1, 1 * h_dim + q, sign)
    return RightModuleAlgebra(
        dim=2, mult=b.mult, unit=b.unit, action=builder.build(), label="kC2-signed"
    )


def _gauge_c2(field: Field) -> GaugeTransformation:
    half = field.from_fraction(Fraction(1, 2))
    neg_half = field.neg(half)
    elem = (half, half, half, neg_half)
    return GaugeTransformation(f=elem, f_inverse=elem)


def _gauge_v4(field: Field) -> GaugeTransformation:
    # Fourier coefficient -1 exactly at the character pair (2, 2) of C2 x C2;
    # its coboundary associator stays visible to an action through character 2.
    # Group-basis coordinates come out with denominator 16.
    coords = []
    for g in range(4):
        for hh in range(4):
            total = 0
            for s in range(4):
                for t in range(4):
                    sign = -1 if s == 2 and t == 2 else 1
                    chi_s = -1 if bin(s & g).count("1") % 2 else 1
                    chi_t = -1 if bin(t & hh).count("1") % 2 else 1
                    total += sign * chi_s * chi_t
            coords.append(field.from_fraction(Fraction(total, 16)))
    elem = tuple(coords)
    return GaugeTransformation(f=elem, f_inverse=elem)


def builtin_corpus(field: Field | None = None) -> tuple[CorpusInstance, ...]:
    """The deterministic list of bundled instances, smallest first."""
    field = field if field is not None else Rationals()

    kc2_a = algebra_from_group(C2_TABLE, 0, field, label="kC2")
    kc2_b = algebra_from_group(C2_TABLE, 0, field, label="kC2")
    kv4 = algebra_from_group(V4_TABLE, 0, field, label="kV4")

    instances: list[CorpusInstance] = []

    flip_twisting = TwistingMapData(a=kc2_a, b=kc2_b, r=flip(field, 2, 2))
    flip_data = twisted_tensor_product(flip_twisting)
    instances.append(
        CorpusInstance(
            name="ttp-flip-c2",
            tags=("crossed-axioms", "twisted-tensor-product", "trivial-twist"),
            description="ordinary tensor product kC2 (x) kC2 via the flip map",
            data=flip_data,
            pair=trivial_pair(flip_data.a, flip_data.v),
            twisting=flip_twisting,
            star=kc2_b.mult,
        )
    )

    h2 = group_like_bialgebra(kc2_a, label="kC2")
    b2 = _sign_action(field, kc2_b, 2, sign_of=(1, -1))
    smash2 = smash_product_data(h2, b2)
    instances.append(
        CorpusInstance(
            name="smash-sign-c2",
            tags=("crossed-axioms", "smash-product"),
            description="kC2 acting on kC2 by the sign automorphism",
            data=smash2,
            quasi=h2,
            module_algebra=b2,
        )
    )

    gauge2 = _gauge_c2(field)
    pair2 = gauge_twist_pair(b2, gauge2)
    instances.append(
        CorpusInstance(
            name="gauge-c2",
            tags=("crossed-axioms", "twist", "gauge", "smash-product"),
            description="the sign-action smash product with its half-sum gauge pair",
            data=smash2,
            pair=pair2,
            quasi=h2,
            module_algebra=b2,
            gauge=gauge2,
        )
    )

    # smash_product_data certified h2 and b2 (below, h4 and b4): check each
    # gauge once, and let the builders certify the twisted objects they build.
    _require(gauge_violations(h2, gauge2), CorpusError, "gauge transformation: ")
    b2f = _module_algebra_twist(_drinfeld_twist(h2, gauge2), b2, gauge2)
    ttp_twisting = TwistingMapData(a=kc2_a, b=kc2_b, r=smash2.r)
    instances.append(
        CorpusInstance(
            name="ttp-star-c2",
            tags=("twisted-tensor-product", "twist", "deformed-star"),
            description="the sign-action twisted tensor product with the gauge-deformed star product",
            data=twisted_tensor_product(ttp_twisting),
            pair=pair2,
            twisting=ttp_twisting,
            star=b2f.mult,
            quasi=h2,
            module_algebra=b2,
            gauge=gauge2,
        )
    )

    h4 = group_like_bialgebra(kv4, label="kV4")
    b4 = _sign_action(field, kc2_b, 4, sign_of=(1, 1, -1, -1))
    gauge4 = _gauge_v4(field)
    smash4 = smash_product_data(h4, b4)
    instances.append(
        CorpusInstance(
            name="gauge-v4",
            tags=("crossed-axioms", "twist", "gauge", "smash-product", "dim-4x2"),
            description="kV4 acting on kC2 with a gauge whose twist has a nontrivial associator",
            data=smash4,
            pair=gauge_twist_pair(b4, gauge4),
            quasi=h4,
            module_algebra=b4,
            gauge=gauge4,
        )
    )

    _require(gauge_violations(h4, gauge4), CorpusError, "gauge transformation: ")
    h4f = _drinfeld_twist(h4, gauge4)
    b4f = _module_algebra_twist(h4f, b4, gauge4)
    gauge4_back = GaugeTransformation(f=gauge4.f_inverse, f_inverse=gauge4.f)
    instances.append(
        CorpusInstance(
            name="smash-v4-twisted",
            tags=("crossed-axioms", "twist", "gauge", "nontrivial-associator"),
            description="smash product over the twisted kV4, associator nontrivial, gauge pointing back",
            data=_smash_product_data(h4f, b4f),
            pair=gauge_twist_pair(b4f, gauge4_back),
            quasi=h4f,
            module_algebra=b4f,
            gauge=gauge4_back,
        )
    )

    return tuple(instances)
