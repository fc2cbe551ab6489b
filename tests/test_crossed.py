import pytest

from crosstwist import (
    Algebra,
    InvalidDataError,
    LinMap,
    Rationals,
    TwistingMapData,
    algebra_from_group,
    basis_vector,
    build_crossed_product,
    check_algebra,
    check_brz_axioms,
    check_twisting_map,
    crossed_mult,
    flip,
    kron_vec,
    maps_equal,
    twisted_tensor_product,
)
from crosstwist.crossed import with_r, with_sigma
from oracles import (
    algebra_product,
    basis_product,
    smash_formula_product,
    sweedler_crossed_product,
    ttp_product,
    zero_map,
)

F = Rationals()
C2 = ((0, 1), (1, 0))
V4 = tuple(tuple(i ^ j for j in range(4)) for i in range(4))


def negate_entry(f: LinMap, row: int, col: int) -> LinMap:
    rows = [list(r) for r in f.matrix]
    rows[row][col] = f.field.neg(rows[row][col])
    return LinMap(f.field, f.domain_dims, f.codomain_dims, tuple(tuple(r) for r in rows))


def bump_entry(f: LinMap, row: int, col: int) -> LinMap:
    rows = [list(r) for r in f.matrix]
    rows[row][col] = f.field.add(rows[row][col], f.field.one())
    return LinMap(f.field, f.domain_dims, f.codomain_dims, tuple(tuple(r) for r in rows))


@pytest.fixture(scope="module")
def flip_twisting():
    a = algebra_from_group(C2, 0, F, label="A")
    b = algebra_from_group(C2, 0, F, label="B")
    return TwistingMapData(a=a, b=b, r=flip(F, 2, 2))


class TestCheckTwistingMap:
    def test_flip_passes_for_various_algebras(self, flip_twisting):
        assert check_twisting_map(flip_twisting).passed
        a = algebra_from_group(V4, 0, F)
        b = algebra_from_group(C2, 0, F)
        assert check_twisting_map(TwistingMapData(a, b, flip(F, 2, 4))).passed

    def test_negated_unit_entry_fails_tw1_at_frozen_index(self, flip_twisting):
        # the 1 of column (b_0, a_1) sits at row (a_1, b_0)
        bad = negate_entry(flip_twisting.r, 2, 1)
        rep = check_twisting_map(TwistingMapData(flip_twisting.a, flip_twisting.b, bad))
        assert not rep.passed
        tw1 = rep.check("tw1")
        assert not tw1.passed and tw1.first_counterexample == (1,)

    def test_negated_gg_entry_is_the_super_flip_and_passes(self, flip_twisting):
        # negating the (g, g) entry yields the graded flip, a valid twisting map
        bad = negate_entry(flip_twisting.r, 3, 3)
        rep = check_twisting_map(TwistingMapData(flip_twisting.a, flip_twisting.b, bad))
        assert rep.passed

    def test_smash_action_map_passes(self, by_name):
        inst = by_name["smash-sign-c2"]
        t = TwistingMapData(inst.data.a, algebra_from_group(C2, 0, F), inst.data.r)
        assert check_twisting_map(t).passed


class TestTwistedTensorProduct:
    def test_flip_on_c2s_gives_group_algebra_of_v4(self, flip_twisting):
        data = twisted_tensor_product(flip_twisting)
        product = build_crossed_product(data)
        expected = algebra_from_group(V4, 0, F)
        assert maps_equal(product.mult, expected.mult)
        assert product.unit == expected.unit

    def test_one_dimensional_b_gives_a_itself(self):
        a = algebra_from_group(C2, 0, F)
        one = Algebra(1, LinMap(F, (1, 1), (1,), ((F.one(),),)), (F.one(),))
        data = twisted_tensor_product(TwistingMapData(a, one, flip(F, 1, 2)))
        product = build_crossed_product(data)
        assert maps_equal(product.mult, a.mult)
        assert product.unit == a.unit

    def test_smash_twisting_map_matches_smash_product_data(self, by_name):
        inst = by_name["smash-sign-c2"]
        t = TwistingMapData(inst.data.a, algebra_from_group(C2, 0, F), inst.data.r)
        data = twisted_tensor_product(t)
        assert maps_equal(data.r, inst.data.r)
        assert maps_equal(data.sigma, inst.data.sigma)

    def test_invalid_twisting_map_rejected(self, flip_twisting):
        bad = negate_entry(flip_twisting.r, 2, 1)
        with pytest.raises(InvalidDataError, match="tw1"):
            twisted_tensor_product(TwistingMapData(flip_twisting.a, flip_twisting.b, bad))


class TestBrzAxioms:
    def test_ttp_output_passes(self, flip_twisting):
        assert check_brz_axioms(twisted_tensor_product(flip_twisting)).passed

    def test_zero_r_fails_brz1_at_frozen_index(self, flip_twisting):
        data = twisted_tensor_product(flip_twisting)
        rep = check_brz_axioms(with_r(data, zero_map(F, (2, 2), (2, 2))))
        brz1 = rep.check("brz1")
        assert not brz1.passed and brz1.first_counterexample == (0,)

    def test_corpus_quasi_hopf_nontrivial_associator_passes(self, by_name):
        rep = check_brz_axioms(by_name["smash-v4-twisted"].data)
        assert rep.passed

    def test_report_determinism(self, by_name):
        data = by_name["gauge-c2"].data
        mutated = with_sigma(data, bump_entry(data.sigma, 0, 0))
        assert check_brz_axioms(mutated) == check_brz_axioms(mutated)


class TestBuildCrossedProduct:
    def test_refuses_unverified_data(self, flip_twisting):
        data = twisted_tensor_product(flip_twisting)
        with pytest.raises(InvalidDataError, match="brz1"):
            build_crossed_product(with_r(data, zero_map(F, (2, 2), (2, 2))))

    def test_defining_property_left_unit_slice(self, corpus):
        for inst in corpus:
            data = inst.data
            product = build_crossed_product(data)
            m, n = data.a.dim, data.v.dim
            for i in range(m):
                for k in range(m):
                    for el in range(n):
                        lhs = algebra_product(
                            product,
                            kron_vec(F, basis_vector(F, m, i), data.v.point),
                            kron_vec(F, basis_vector(F, m, k), basis_vector(F, n, el)),
                        )
                        rhs = kron_vec(F, basis_product(data.a, i, k), basis_vector(F, n, el))
                        assert lhs == rhs, f"{inst.name}: defining property fails at {(i, k, el)}"

    def test_soundness_products_are_algebras(self, corpus):
        for inst in corpus:
            assert check_algebra(build_crossed_product(inst.data)).passed, inst.name

    def test_sweedler_product_oracle_agrees(self, corpus):
        for inst in corpus:
            assert maps_equal(crossed_mult(inst.data), sweedler_crossed_product(inst.data)), inst.name

    def test_ttp_multiplication_matches_independent_expansion(self, corpus):
        for inst in corpus:
            if inst.twisting is None:
                continue
            data = twisted_tensor_product(inst.twisting)
            assert maps_equal(crossed_mult(data), ttp_product(inst.twisting)), inst.name

    def test_smash_product_matches_displayed_formula(self, corpus):
        for inst in corpus:
            if inst.quasi is None or inst.module_algebra is None:
                continue
            got = crossed_mult(inst.data)
            want = smash_formula_product(inst.quasi, inst.module_algebra)
            assert maps_equal(got, want), inst.name


def crafted_mutations(data):
    """Eleven single-entry mutations breaking brz1, brz2, or the algebra laws."""
    m, n = data.a.dim, data.v.dim
    muts = []
    for k in range(min(m, 3)):
        muts.append(("r", f"r column (point, a_{k})", with_r(data, bump_entry(data.r, 0, 0 * m + k))))
    muts.append(("r", "r column (v_1, unit)", with_r(data, bump_entry(data.r, 0, 1 * m + 0))))
    muts.append(("r", "r column (point, unit), row 1", with_r(data, bump_entry(data.r, 1, 0))))
    muts.append(
        ("sigma", "sigma column (point, point), row 1", with_sigma(data, bump_entry(data.sigma, 1, 0)))
    )
    for el in range(min(n, 3)):
        muts.append(
            ("sigma", f"sigma column (point, v_{el})", with_sigma(data, bump_entry(data.sigma, 0, 0 * n + el)))
        )
    muts.append(
        ("sigma", "sigma column (v_1, point)", with_sigma(data, bump_entry(data.sigma, 0, 1 * n + 0)))
    )
    for col in (0, 1, m):
        mult = bump_entry(data.a.mult, 0, col)
        algebra = Algebra(m, mult, data.a.unit, label=data.a.label)
        muts.append(("mult", f"mult column {col}", algebra))
    return muts


class TestMutationDetection:
    def test_battery_on_every_corpus_instance(self, corpus):
        for inst in corpus:
            muts = crafted_mutations(inst.data)
            assert len(muts) >= 10
            for kind, desc, mutated in muts:
                if kind == "mult":
                    rep = check_algebra(mutated)
                else:
                    rep = check_brz_axioms(mutated)
                    law = "brz1" if kind == "r" else "brz2"
                    bad = rep.check(law)
                    assert not bad.passed, f"{inst.name}: {desc} not flagged by {law}"
                    assert bad.first_counterexample is not None and len(bad.first_counterexample) > 0
                assert not rep.passed, f"{inst.name}: {desc} undetected"
                assert any(
                    (not c.passed) and c.first_counterexample for c in rep.checks
                ), f"{inst.name}: {desc} lacks a counterexample"
