import random

import pytest

from crosstwist import (
    NonAssociativeError,
    PointedSpace,
    Rationals,
    TwistPair,
    TwistPreconditionError,
    TwistResult,
    algebra_from_group,
    apply,
    apply_twist,
    basis_vector,
    check_brz_axioms,
    check_twist_conditions,
    compose,
    crossed_mult,
    drinfeld_twist,
    flip,
    identity,
    kron_vec,
    make_r_prime,
    make_sigma_prime,
    maps_equal,
    opposite_unit_insertion,
    phi_map,
    specialize_ttp,
    trivial_pair,
    verify_twist_result,
)
from crosstwist.crossed import with_r
from oracles import (
    check_mutual_inverse,
    check_pair_units,
    mu2,
    random_matrix_map,
    random_twist_pair,
    scale,
    sweedler_r_prime,
    sweedler_sigma_prime,
    tensor_map,
    zero_map,
)

F = Rationals()
C3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def paired(corpus):
    return [(i, i.pair if i.pair is not None else trivial_pair(i.data.a, i.data.v)) for i in corpus]


class TestTwistConditions:
    def test_trivial_pair_passes_everywhere(self, corpus):
        for inst in corpus:
            pair = trivial_pair(inst.data.a, inst.data.v)
            assert check_twist_conditions(inst.data, pair).passed, inst.name

    def test_corpus_pairs_pass(self, corpus):
        for inst in corpus:
            if inst.pair is not None:
                assert check_twist_conditions(inst.data, inst.pair).passed, inst.name

    def test_corpus_pairs_pass_by_direct_slicing(self, corpus):
        # cros2/cros3 re-verified one basis vector at a time, bypassing the
        # map-level comparison
        for inst in corpus:
            if inst.pair is None:
                continue
            data, pair = inst.data, inst.pair
            n = data.v.dim
            pg = phi_map(data.a, pair.gamma)
            pt = phi_map(data.a, pair.theta)
            for j in range(n):
                e_j = basis_vector(F, n, j)
                want = kron_vec(F, data.a.unit, e_j)
                assert apply(pg, apply(pair.theta, e_j)) == want
                assert apply(pt, apply(pair.gamma, e_j)) == want

    def test_doubled_gamma_fails_cros2(self, by_name):
        inst = by_name["ttp-flip-c2"]
        iota = opposite_unit_insertion(inst.data.a, inst.data.v)
        pair = TwistPair(theta=iota, gamma=scale(iota, F.from_int(2)))
        rep = check_twist_conditions(inst.data, pair)
        assert not rep.check("cros2").passed
        assert not rep.check("cros3").passed
        assert not rep.check("cros1").passed  # gamma(1_V) is also doubled


class TestPrimedMaps:
    def test_trivial_pair_fixes_r_and_sigma(self, corpus):
        for inst in corpus:
            pair = trivial_pair(inst.data.a, inst.data.v)
            assert maps_equal(make_r_prime(inst.data, pair), inst.data.r), inst.name
            assert maps_equal(make_sigma_prime(inst.data, pair), inst.data.sigma), inst.name

    def test_primed_data_satisfies_unit_axioms(self, corpus):
        for inst, pair in paired(corpus):
            result = apply_twist(inst.data, pair)
            rep = check_brz_axioms(result.data_prime)
            assert rep.check("brz1").passed and rep.check("brz2").passed, inst.name

    def test_r_prime_matches_twisted_comultiplication(self, by_name):
        for name in ("gauge-c2", "gauge-v4"):
            inst = by_name[name]
            hf = drinfeld_twist(inst.quasi, inst.gauge)
            m, n = inst.data.a.dim, inst.data.v.dim
            id_h, id_b = identity(F, (m,)), identity(F, (n,))
            r_f = compose(
                tensor_map(id_h, inst.module_algebra.action),
                compose(tensor_map(flip(F, n, m), id_h), tensor_map(id_b, hf.comult)),
            )
            assert maps_equal(make_r_prime(inst.data, inst.pair), r_f), name

    def test_sweedler_oracles_agree_on_corpus(self, corpus):
        for inst, pair in paired(corpus):
            assert maps_equal(make_r_prime(inst.data, pair), sweedler_r_prime(inst.data, pair)), inst.name
            assert maps_equal(
                make_sigma_prime(inst.data, pair), sweedler_sigma_prime(inst.data, pair)
            ), inst.name


class TestApplyTwist:
    def test_trivial_pair_returns_bit_identical_data(self, corpus):
        for inst in corpus:
            pair = trivial_pair(inst.data.a, inst.data.v)
            result = apply_twist(inst.data, pair)
            assert result.data_prime == inst.data, inst.name
            assert maps_equal(result.phi, identity(F, (inst.data.a.dim, inst.data.v.dim)))

    def test_corpus_instances_certify(self, corpus):
        for inst, pair in paired(corpus):
            result = apply_twist(inst.data, pair)
            assert verify_twist_result(inst.data, result).passed, inst.name

    def test_rejects_broken_pair_naming_condition(self, by_name):
        inst = by_name["ttp-flip-c2"]
        iota = opposite_unit_insertion(inst.data.a, inst.data.v)
        pair = TwistPair(theta=iota, gamma=scale(iota, F.from_int(2)))
        with pytest.raises(TwistPreconditionError, match="cros"):
            apply_twist(inst.data, pair)

    def test_rejects_broken_data_naming_axiom(self, by_name):
        inst = by_name["ttp-flip-c2"]
        bad = with_r(inst.data, zero_map(F, (2, 2), (2, 2)))
        pair = trivial_pair(inst.data.a, inst.data.v)
        with pytest.raises(TwistPreconditionError, match="brz1"):
            apply_twist(bad, pair)

    def test_rejects_non_associative_algebra(self, non_associative):
        data, pair = non_associative
        assert check_brz_axioms(data).passed
        with pytest.raises(TwistPreconditionError, match="underlying algebra fails assoc"):
            apply_twist(data, pair)

    def test_product_builders_refuse_non_associative_algebra(self, non_associative):
        """Every map built from the product on A (x) V needs the triple product
        of A, so each refuses the A of the fixture, where (e1 e1) e1 != e1 (e1 e1).
        A failing certificate is never remembered, so each refuses every time."""
        data, pair = non_associative
        result = TwistResult(data.r, data.sigma, data, identity(F, (3, 1)), identity(F, (3, 1)))
        calls = (
            (mu2, data.a),
            (crossed_mult, data),
            (make_r_prime, data, pair),
            (make_sigma_prime, data, pair),
            (check_twist_conditions, data, pair),
            (verify_twist_result, data, result),
        )
        message = r"bracketing; first difference on basis input \(1, 1, 1\)$"
        for build, *args in calls + calls:
            with pytest.raises(NonAssociativeError, match=message):
                build(*args)

    def test_round_trip_with_swapped_pair(self, corpus):
        for inst in corpus:
            if inst.pair is None:
                continue
            result = apply_twist(inst.data, inst.pair)
            swapped = TwistPair(theta=inst.pair.gamma, gamma=inst.pair.theta)
            if not check_twist_conditions(result.data_prime, swapped).passed:
                continue
            back = apply_twist(result.data_prime, swapped)
            assert back.data_prime.r == inst.data.r, inst.name
            assert back.data_prime.sigma == inst.data.sigma, inst.name

    def test_swapped_pair_passes_for_gauge_instances(self, by_name):
        # the gauge pairs are honest round-trip witnesses, not vacuous skips
        for name in ("gauge-c2", "gauge-v4"):
            inst = by_name[name]
            result = apply_twist(inst.data, inst.pair)
            swapped = TwistPair(theta=inst.pair.gamma, gamma=inst.pair.theta)
            assert check_twist_conditions(result.data_prime, swapped).passed, name


def random_gauge(field, nbits, rng):
    """Counital invertible element of k[G] (x) k[G] for G = (C2)^nbits, drawn
    through the character idempotents so the inverse is exact by construction."""
    from fractions import Fraction

    from crosstwist import GaugeTransformation

    order = 1 << nbits
    values = {}
    for s in range(order):
        for t in range(order):
            if s == 0 or t == 0:
                values[(s, t)] = Fraction(1)
            else:
                num = rng.choice([x for x in range(-4, 5) if x != 0])
                values[(s, t)] = Fraction(num, rng.randint(1, 3))

    def coords(table):
        out = []
        for g in range(order):
            for h in range(order):
                total = Fraction(0)
                for s in range(order):
                    chi_s = -1 if bin(s & g).count("1") % 2 else 1
                    for t in range(order):
                        chi_t = -1 if bin(t & h).count("1") % 2 else 1
                        total += table[(s, t)] * chi_s * chi_t
                out.append(field.from_fraction(total / order**2))
        return tuple(out)

    inverse = {key: 1 / val for key, val in values.items()}
    return GaugeTransformation(f=coords(values), f_inverse=coords(inverse))


class TestRandomizedGaugeInstances:
    def test_random_gauges_certify_on_c2_smash(self, by_name):
        from crosstwist import gauge_twist_pair
        from crosstwist.corpus import gauge_violations

        inst = by_name["smash-sign-c2"]
        rng = random.Random(314159)
        for _ in range(10):
            gauge = random_gauge(F, 1, rng)
            assert not gauge_violations(inst.quasi, gauge)
            pair = gauge_twist_pair(inst.module_algebra, gauge)
            assert check_twist_conditions(inst.data, pair).passed
            result = apply_twist(inst.data, pair)
            assert verify_twist_result(inst.data, result).passed

    def test_random_gauges_certify_on_v4_smash(self, by_name):
        from crosstwist import gauge_twist_pair
        from crosstwist.corpus import gauge_violations

        inst = by_name["gauge-v4"]
        rng = random.Random(271828)
        for _ in range(3):
            gauge = random_gauge(F, 2, rng)
            assert not gauge_violations(inst.quasi, gauge)
            pair = gauge_twist_pair(inst.module_algebra, gauge)
            assert check_twist_conditions(inst.data, pair).passed
            result = apply_twist(inst.data, pair)
            assert verify_twist_result(inst.data, result).passed


class TestMutualInverseCharacterization:
    def setup_method(self):
        self.a = algebra_from_group(C3, 0, F, label="kC3")
        self.v = PointedSpace(3, basis_vector(F, 3, 0))
        self.id_av = identity(F, (3, 3))

    def equivalences(self, pair):
        c2, c3 = check_mutual_inverse(self.a, self.v, pair)
        pt, pg = phi_map(self.a, pair.theta), phi_map(self.a, pair.gamma)
        assert c2.passed == maps_equal(compose(pg, pt), self.id_av)
        assert c3.passed == maps_equal(compose(pt, pg), self.id_av)
        return c2, c3

    def test_constructed_pairs_pass(self):
        rng = random.Random(90)
        for _ in range(10):
            pair = random_twist_pair(self.a, self.v, rng)
            assert check_pair_units(self.a, self.v, pair).passed
            c2, c3 = self.equivalences(pair)
            assert c2.passed and c3.passed

    def test_broken_pairs_fail_consistently(self):
        rng = random.Random(91)
        pair = random_twist_pair(self.a, self.v, rng)
        doubled = TwistPair(theta=pair.theta, gamma=scale(pair.gamma, F.from_int(2)))
        c2, c3 = self.equivalences(doubled)
        assert not c2.passed and not c3.passed
        # a random gamma almost never inverts theta; the iff still holds
        shuffled = TwistPair(theta=pair.theta, gamma=sweedler_like_random(self.a, self.v, rng))
        self.equivalences(shuffled)

    def test_generator_is_seed_deterministic(self):
        p1 = random_twist_pair(self.a, self.v, random.Random(42))
        p2 = random_twist_pair(self.a, self.v, random.Random(42))
        assert p1 == p2


def sweedler_like_random(a, v, rng):
    return random_matrix_map(a.field, (v.dim,), (a.dim, v.dim), rng)


class TestSpecializeTtp:
    def test_trivial_star_passes(self, by_name):
        inst = by_name["ttp-flip-c2"]
        rep = specialize_ttp(inst.twisting, inst.star, inst.pair)
        assert rep.passed
        # sigma' is the trivial cocycle for the original product
        data = inst.data
        iota = opposite_unit_insertion(data.a, data.v)
        assert maps_equal(make_sigma_prime(data, inst.pair), compose(iota, inst.star))

    def test_deformed_star_instance_passes(self, by_name):
        inst = by_name["ttp-star-c2"]
        rep = specialize_ttp(inst.twisting, inst.star, inst.pair)
        assert rep.passed
        for law in ("rel1", "rel2", "rel3", "theta_mult", "sigma_prime_ttp", "cros1"):
            assert rep.check(law).passed, law

    def test_star_table_is_the_gauge_deformation(self, by_name):
        star = by_name["ttp-star-c2"].star
        e, u = basis_vector(F, 2, 0), basis_vector(F, 2, 1)
        assert star.column(3) == (F.neg(F.one()), F.zero())  # u * u = -e
        assert star.column(1) == (F.zero(), F.one())  # e * u = u
        assert star.column(2) == (F.zero(), F.one())  # u * e = u

    def test_doubled_gamma_flags_rel2(self, by_name):
        inst = by_name["ttp-star-c2"]
        pair = TwistPair(theta=inst.pair.theta, gamma=scale(inst.pair.gamma, F.from_int(2)))
        rep = specialize_ttp(inst.twisting, inst.star, pair)
        assert not rep.check("rel2").passed
        assert not rep.check("rel3").passed

    def test_nonassociative_star_rejected(self, by_name):
        inst = by_name["ttp-star-c2"]
        rows = [list(r) for r in inst.star.matrix]
        rows[0][1] = F.add(rows[0][1], F.one())
        from crosstwist import LinMap

        bad = LinMap(F, (2, 2), (2,), tuple(tuple(r) for r in rows))
        with pytest.raises(TwistPreconditionError, match="unit|assoc"):
            specialize_ttp(inst.twisting, bad, inst.pair)
