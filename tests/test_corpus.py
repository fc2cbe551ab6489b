from fractions import Fraction

import pytest

import crosstwist.corpus
from crosstwist import (
    CharacteristicError,
    CorpusError,
    GaugeTransformation,
    LinMap,
    MapBuilder,
    PrimeField,
    QuasiBialgebra,
    Rationals,
    RightModuleAlgebra,
    algebra_from_group,
    apply_twist,
    basis_vector,
    builtin_corpus,
    check_brz_axioms,
    check_twist_conditions,
    drinfeld_twist,
    gauge_twist_pair,
    group_like_bialgebra,
    kron_vec,
    maps_equal,
    module_algebra_twist,
    pentagon_violations,
    quasi_bialgebra_violations,
    smash_product_data,
    twisted_tensor_product,
    verify_twist_result,
)
from crosstwist.corpus import (
    C2_TABLE,
    V4_TABLE,
    _sign_action,
    gauge_violations,
    module_algebra_violations,
)
from oracles import basis_product

F = Rationals()


def trivial_gauge(field, m):
    alg_unit = basis_vector(field, m, 0)
    elem = kron_vec(field, alg_unit, alg_unit)
    return GaugeTransformation(f=elem, f_inverse=elem)


def direct_phi(inst) -> LinMap:
    """The map h (x) b -> h F1 (x) b . F2, assembled entry by entry."""
    field = inst.data.field
    m, n = inst.data.a.dim, inst.data.v.dim
    builder = MapBuilder(field, (m, n), (m, n))
    zero, action = field.zero(), inst.module_algebra.action.matrix
    for flat, coeff in enumerate(inst.gauge.f):
        if coeff == zero:
            continue
        p, q = flat // m, flat % m
        for k in range(m):
            hk = basis_product(inst.data.a, k, p)
            for j in range(n):
                for u in range(n):
                    act = action[u][j * m + q]
                    if act == zero:
                        continue
                    for s in range(m):
                        if hk[s] != zero:
                            builder.add(
                                s * n + u, k * n + j, field.mul(coeff, field.mul(hk[s], act))
                            )
    return builder.build()


class TestBuiltinCorpus:
    def test_at_least_four_instances(self, corpus):
        assert len(corpus) >= 4

    def test_deterministic_across_runs(self, corpus):
        assert builtin_corpus(F) == corpus

    def test_every_instance_passes_pipeline(self, corpus):
        for inst in corpus:
            assert check_brz_axioms(inst.data).passed, inst.name
            if inst.pair is not None:
                assert check_twist_conditions(inst.data, inst.pair).passed, inst.name
                result = apply_twist(inst.data, inst.pair)
                assert verify_twist_result(inst.data, result).passed, inst.name

    def test_has_4x2_instance(self, by_name):
        inst = by_name["gauge-v4"]
        assert inst.data.a.dim == 4 and inst.data.v.dim == 2

    def test_tags_name_what_each_instance_exercises(self, corpus):
        for inst in corpus:
            assert inst.tags, inst.name

    def test_every_corpus_algebra_is_lawful(self, corpus):
        from crosstwist import check_algebra

        for inst in corpus:
            assert check_algebra(inst.data.a).passed, inst.name
            if inst.quasi is not None:
                assert check_algebra(inst.quasi.algebra).passed, inst.name
            if inst.twisting is not None:
                assert check_algebra(inst.twisting.b).passed, inst.name

    @pytest.mark.parametrize("p", [3, 5])
    def test_corpus_over_prime_fields(self, p):
        field = PrimeField(p)
        for inst in builtin_corpus(field):
            assert check_brz_axioms(inst.data).passed, (inst.name, p)

    def test_characteristic_two_rejected_with_diagnostic(self):
        with pytest.raises(CharacteristicError, match="characteristic 2"):
            builtin_corpus(PrimeField(2))


class TestSmashProduct:
    def test_trivial_action_gives_ordinary_tensor_product(self):
        h = group_like_bialgebra(algebra_from_group(C2_TABLE, 0, F, label="H"))
        one, zero = F.one(), F.zero()
        # b . h = counit(h) b
        action = LinMap(
            F, (2, 2), (2,),
            tuple(
                tuple(one if u == j else zero for j in range(2) for q in range(2))
                for u in range(2)
            ),
        )
        b = RightModuleAlgebra(
            dim=2,
            mult=algebra_from_group(C2_TABLE, 0, F).mult,
            unit=basis_vector(F, 2, 0),
            action=action,
        )
        data = smash_product_data(h, b)
        from crosstwist import TwistingMapData, flip

        plain = twisted_tensor_product(
            TwistingMapData(h.algebra, algebra_from_group(C2_TABLE, 0, F), flip(F, 2, 2))
        )
        assert maps_equal(data.r, plain.r)
        assert maps_equal(data.sigma, plain.sigma)

    def test_sign_action_satisfies_all_five_axioms(self, by_name):
        assert check_brz_axioms(by_name["smash-sign-c2"].data).passed

    def test_nontrivial_associator_sigma_has_nonunit_first_leg(self, by_name):
        sigma = by_name["smash-v4-twisted"].data.sigma
        m, n = 4, 2
        nonunit_rows = [p * n + u for p in range(1, m) for u in range(n)]
        rows = sigma.matrix
        assert any(rows[row][col] != F.zero() for row in nonunit_rows for col in range(n * n))

    def test_invalid_module_algebra_rejected(self):
        h = group_like_bialgebra(algebra_from_group(C2_TABLE, 0, F))
        b = _sign_action(F, algebra_from_group(C2_TABLE, 0, F), 2, sign_of=(1, -1))
        rows = [list(r) for r in b.action.matrix]
        rows[0][0] = F.zero()  # e . 1_H no longer e
        bad = RightModuleAlgebra(
            dim=2,
            mult=b.mult,
            unit=b.unit,
            action=LinMap(F, (2, 2), (2,), tuple(tuple(r) for r in rows)),
        )
        with pytest.raises(CorpusError, match="action_unital"):
            smash_product_data(h, bad)


class TestDrinfeldTwist:
    def test_identity_gauge_is_identity(self, by_name):
        h = by_name["gauge-c2"].quasi
        assert drinfeld_twist(h, trivial_gauge(F, 2)) == h

    def test_twist_then_untwist_restores(self, by_name):
        for name in ("gauge-c2", "gauge-v4"):
            inst = by_name[name]
            hf = drinfeld_twist(inst.quasi, inst.gauge)
            back = GaugeTransformation(f=inst.gauge.f_inverse, f_inverse=inst.gauge.f)
            assert drinfeld_twist(hf, back) == inst.quasi, name

    def test_c2_gauge_twist_is_valid_with_computed_associator(self, by_name):
        inst = by_name["gauge-c2"]
        hf = drinfeld_twist(inst.quasi, inst.gauge)
        assert not quasi_bialgebra_violations(hf)
        assert not pentagon_violations(hf)

    def test_v4_gauge_twist_has_nontrivial_associator(self, by_name):
        inst = by_name["gauge-v4"]
        hf = drinfeld_twist(inst.quasi, inst.gauge)
        unit3 = kron_vec(F, kron_vec(F, hf.algebra.unit, hf.algebra.unit), hf.algebra.unit)
        assert hf.associator != unit3
        assert not pentagon_violations(hf)

    def test_gauge_composition_on_c2(self, by_name):
        inst = by_name["gauge-c2"]
        h, f1 = inst.quasi, inst.gauge
        # second gauge: value 2 on the minus-minus character pair
        e, g = basis_vector(F, 2, 0), basis_vector(F, 2, 1)
        p_minus = tuple(F.mul(Fraction(1, 2), F.sub(a, b)) for a, b in zip(e, g))
        unit2 = kron_vec(F, e, e)
        pm2 = kron_vec(F, p_minus, p_minus)
        f2_elem = tuple(F.add(u, x) for u, x in zip(unit2, pm2))
        f2_inv = tuple(F.sub(u, F.mul(Fraction(1, 2), x)) for u, x in zip(unit2, pm2))
        f2 = GaugeTransformation(f=f2_elem, f_inverse=f2_inv)
        assert not gauge_violations(h, f2)

        from crosstwist import tensor_elem_product

        prod = GaugeTransformation(
            f=tensor_elem_product(h.algebra, 2, f2.f, f1.f),
            f_inverse=tensor_elem_product(h.algebra, 2, f1.f_inverse, f2.f_inverse),
        )
        hf1 = drinfeld_twist(h, f1)
        assert drinfeld_twist(hf1, f2) == drinfeld_twist(h, prod)

        b = inst.module_algebra
        once = module_algebra_twist(h, b, f1)
        twice = module_algebra_twist(hf1, once, f2)
        assert twice.mult == module_algebra_twist(h, b, prod).mult


CERTIFIERS = ("quasi_bialgebra_violations", "module_algebra_violations", "gauge_violations")


class TestCertifyOnce:
    @pytest.mark.parametrize("field", [F, PrimeField(5)], ids=["Q", "GF5"])
    def test_builtin_corpus_checks_each_object_once(self, field, count_calls):
        # four quasi-bialgebras (kC2, kV4 and their twists), four module
        # algebras over them, two gauges
        counts = count_calls(crosstwist.corpus, CERTIFIERS)
        builtin_corpus(field)
        assert counts == {
            "quasi_bialgebra_violations": 4,
            "module_algebra_violations": 4,
            "gauge_violations": 2,
        }

    def test_module_algebra_twist_checks_its_gauge_once(self, by_name, count_calls):
        inst = by_name["gauge-c2"]
        counts = count_calls(crosstwist.corpus, CERTIFIERS)
        module_algebra_twist(inst.quasi, inst.module_algebra, inst.gauge)
        # the inputs and H_F, the input and the twisted module algebra, one gauge
        assert counts == {
            "quasi_bialgebra_violations": 2,
            "module_algebra_violations": 2,
            "gauge_violations": 1,
        }


class TestModuleAlgebraTwist:
    def test_identity_gauge_is_identity(self, by_name):
        inst = by_name["gauge-c2"]
        got = module_algebra_twist(inst.quasi, inst.module_algebra, trivial_gauge(F, 2))
        assert got.mult == inst.module_algebra.mult
        assert got.action == inst.module_algebra.action

    def test_star_unit_laws(self, by_name):
        inst = by_name["gauge-c2"]
        twisted = module_algebra_twist(inst.quasi, inst.module_algebra, inst.gauge)
        for j in range(2):
            e_j = basis_vector(F, 2, j)
            col_left = twisted.mult.column(0 * 2 + j)
            col_right = twisted.mult.column(j * 2 + 0)
            assert col_left == e_j and col_right == e_j

    def test_twisted_algebra_lives_over_twisted_bialgebra(self, by_name):
        inst = by_name["gauge-v4"]
        hf = drinfeld_twist(inst.quasi, inst.gauge)
        bf = module_algebra_twist(inst.quasi, inst.module_algebra, inst.gauge)
        assert not module_algebra_violations(hf, bf)


class TestGaugeTwistAgreement:
    def test_twist_agrees_with_directly_built_smash(self, corpus):
        for inst in corpus:
            if inst.gauge is None or inst.quasi is None:
                continue
            result = apply_twist(inst.data, inst.pair)
            hf = drinfeld_twist(inst.quasi, inst.gauge)
            bf = module_algebra_twist(inst.quasi, inst.module_algebra, inst.gauge)
            direct = smash_product_data(hf, bf)
            assert maps_equal(result.data_prime.r, direct.r), inst.name
            assert maps_equal(result.data_prime.sigma, direct.sigma), inst.name

    def test_phi_is_the_displayed_map(self, corpus):
        for inst in corpus:
            if inst.gauge is None:
                continue
            result = apply_twist(inst.data, inst.pair)
            assert maps_equal(result.phi, direct_phi(inst)), inst.name

    def test_gauge_pair_of_identity_is_trivial(self, by_name):
        inst = by_name["gauge-c2"]
        pair = gauge_twist_pair(inst.module_algebra, trivial_gauge(F, 2))
        from crosstwist import opposite_unit_insertion

        iota = opposite_unit_insertion(inst.data.a, inst.data.v)
        assert maps_equal(pair.theta, iota) and maps_equal(pair.gamma, iota)


class TestQuasiBialgebraChecks:
    def test_group_like_is_valid(self):
        h = group_like_bialgebra(algebra_from_group(V4_TABLE, 0, F))
        assert not quasi_bialgebra_violations(h)
        assert not pentagon_violations(h)

    def test_broken_comult_flagged(self):
        h = group_like_bialgebra(algebra_from_group(C2_TABLE, 0, F))
        rows = [list(r) for r in h.comult.matrix]
        rows[0][1] = F.one()  # delta(g) picks up an e (x) e term
        bad = QuasiBialgebra(
            algebra=h.algebra,
            comult=LinMap(F, (2,), (2, 2), tuple(tuple(r) for r in rows)),
            counit=h.counit,
            associator=h.associator,
            associator_inverse=h.associator_inverse,
        )
        violations = quasi_bialgebra_violations(bad)
        assert any("comult_algebra_map" in v or "counit_laws" in v for v in violations)

    def test_pentagon_reported_separately(self):
        # scale the minus-minus-minus character value of the associator by 2:
        # counital, invertible, quasi-coassociative, but the pentagon fails
        h = group_like_bialgebra(algebra_from_group(C2_TABLE, 0, F))
        e, g = basis_vector(F, 2, 0), basis_vector(F, 2, 1)
        p_minus = tuple(F.mul(Fraction(1, 2), F.sub(a, b)) for a, b in zip(e, g))
        pm3 = kron_vec(F, kron_vec(F, p_minus, p_minus), p_minus)
        phi = tuple(F.add(u, x) for u, x in zip(h.associator, pm3))
        phi_inv = tuple(F.sub(u, F.mul(Fraction(1, 2), x)) for u, x in zip(h.associator, pm3))
        crooked = QuasiBialgebra(
            algebra=h.algebra,
            comult=h.comult,
            counit=h.counit,
            associator=phi,
            associator_inverse=phi_inv,
        )
        assert not quasi_bialgebra_violations(crooked)
        assert pentagon_violations(crooked)

    def test_gauge_violations_flag_bad_inverse(self, by_name):
        inst = by_name["gauge-c2"]
        bad = GaugeTransformation(f=inst.gauge.f, f_inverse=kron_vec(F, basis_vector(F, 2, 0), basis_vector(F, 2, 0)))
        assert any("gauge_invertible" in v for v in gauge_violations(inst.quasi, bad))
