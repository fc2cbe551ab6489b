import pytest

from crosstwist import (
    Algebra,
    GroupTableError,
    LinMap,
    NonAssociativeError,
    PointedSpace,
    Rationals,
    algebra_from_group,
    apply,
    basis_vector,
    check_algebra,
    compose,
    identity,
    kron_vec,
    maps_equal,
    opposite_unit_insertion,
    tensor_elem_product,
)
from oracles import algebra_product, basis_product, mu2, tensor_algebra, tensor_map, triple_product_table

F = Rationals()
C2 = ((0, 1), (1, 0))
C3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# S3 with elements e, r, r2, s, sr, sr2 (r the 3-cycle, s a transposition)
S3 = (
    (0, 1, 2, 3, 4, 5),
    (1, 2, 0, 5, 3, 4),
    (2, 0, 1, 4, 5, 3),
    (3, 4, 5, 0, 1, 2),
    (4, 5, 3, 2, 0, 1),
    (5, 3, 4, 1, 2, 0),
)


def mutate(mult: LinMap, row: int, col: int, delta) -> LinMap:
    rows = [list(r) for r in mult.matrix]
    rows[row][col] = mult.field.add(rows[row][col], delta)
    return LinMap(mult.field, mult.domain_dims, mult.codomain_dims, tuple(tuple(r) for r in rows))


class TestCheckAlgebra:
    def test_group_algebra_c2_passes(self):
        assert check_algebra(algebra_from_group(C2, 0, F)).passed

    def test_one_dimensional_passes(self):
        one = Algebra(1, LinMap(F, (1, 1), (1,), ((F.one(),),)), (F.one(),))
        assert check_algebra(one).passed

    def test_gg_moved_to_g_still_lawful(self):
        # moving the mass of g*g from e to g gives the semilattice monoid
        # algebra, which the checker correctly reports as lawful
        c2 = algebra_from_group(C2, 0, F)
        rows = [list(r) for r in c2.mult.matrix]
        rows[0][3] = F.zero()
        rows[1][3] = F.one()
        alg = Algebra(2, LinMap(F, (2, 2), (2,), tuple(tuple(r) for r in rows)), c2.unit)
        assert check_algebra(alg).passed

    def test_unit_column_mutation_fails_with_frozen_indices(self):
        c2 = algebra_from_group(C2, 0, F)
        alg = Algebra(2, mutate(c2.mult, 0, 1, F.one()), c2.unit)
        rep = check_algebra(alg)
        assert not rep.passed
        assert rep.check("assoc").first_counterexample == (0, 0, 1)
        assert rep.check("unit_left").first_counterexample == (1,)

    def test_v4_moved_product_breaks_assoc_at_frozen_triple(self):
        v4 = algebra_from_group(tuple(tuple(i ^ j for j in range(4)) for i in range(4)), 0, F)
        rows = [list(r) for r in v4.mult.matrix]
        rows[3][1 * 4 + 2] = F.zero()
        rows[1][1 * 4 + 2] = F.one()
        alg = Algebra(4, LinMap(F, (4, 4), (4,), tuple(tuple(r) for r in rows)), v4.unit)
        rep = check_algebra(alg)
        assert not rep.check("assoc").passed
        assert rep.check("assoc").first_counterexample == (1, 1, 2)


class TestMu2:
    def test_one_dimensional(self):
        one = Algebra(1, LinMap(F, (1, 1), (1,), ((F.one(),),)), (F.one(),))
        assert mu2(one).matrix == ((F.one(),),)

    def test_c2_cubed_is_g(self):
        c2 = algebra_from_group(C2, 0, F)
        g = basis_vector(F, 2, 1)
        got = apply(mu2(c2), kron_vec(F, kron_vec(F, g, g), g))
        assert got == g

    def test_matches_brute_force_triple_table(self):
        c3 = algebra_from_group(C3, 0, F)
        m = mu2(c3)
        left, right = triple_product_table(c3)
        for (i, j, k), want in left.items():
            col = kron_vec(F, kron_vec(F, basis_vector(F, 3, i), basis_vector(F, 3, j)), basis_vector(F, 3, k))
            assert apply(m, col) == want
            assert right[(i, j, k)] == want

    def test_nonassociative_input_raises(self):
        c2 = algebra_from_group(C2, 0, F)
        bad = Algebra(2, mutate(c2.mult, 0, 1, F.one()), c2.unit)
        with pytest.raises(NonAssociativeError):
            mu2(bad)


class TestAlgebraFromGroup:
    def test_c2(self):
        alg = algebra_from_group(C2, 0, F)
        assert alg.dim == 2
        assert basis_product(alg, 1, 1) == basis_vector(F, 2, 0)
        assert alg.unit == basis_vector(F, 2, 0)

    def test_c2_x_c2(self):
        table = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
        alg = algebra_from_group(table, 0, F)
        assert alg.dim == 4
        assert check_algebra(alg).passed

    def test_s3_noncommutative_witness(self):
        alg = algebra_from_group(S3, 0, F)
        assert alg.dim == 6
        assert check_algebra(alg).passed
        r, s = basis_vector(F, 6, 1), basis_vector(F, 6, 3)
        assert algebra_product(alg, r, s) != algebra_product(alg, s, r)

    @pytest.mark.parametrize(
        "table, identity_index, axiom",
        [
            (((0, 1), (1, 2)), 0, "closure"),
            (((0, 1), (1, 0)), 1, "identity"),
            (((0, 1, 2), (1, 0, 0), (2, 0, 1)), 0, "associativity"),
            (((0, 1), (1, 1)), 0, "inverses"),
        ],
    )
    def test_bad_tables_name_the_axiom(self, table, identity_index, axiom):
        with pytest.raises(GroupTableError, match=axiom):
            algebra_from_group(table, identity_index, F)

    def test_nonassociative_table_named(self):
        # latin square of a quasigroup that is not a group
        table = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 3, 4, 0, 1), (3, 4, 1, 2, 0), (4, 2, 0, 1, 3))
        with pytest.raises(GroupTableError, match="associativity"):
            algebra_from_group(table, 0, F)


class TestArbitraryBases:
    def test_unit_need_not_be_a_basis_vector(self):
        # k x k with componentwise product; the unit is (1, 1)
        one, zero = F.one(), F.zero()
        mult = LinMap(
            F,
            (2, 2),
            (2,),
            ((one, zero, zero, zero), (zero, zero, zero, one)),
        )
        alg = Algebra(2, mult, (one, one), label="k x k")
        assert check_algebra(alg).passed

    def test_group_identity_at_nonzero_index(self):
        alg = algebra_from_group(((1, 0), (0, 1)), 1, F)
        assert alg.unit == basis_vector(F, 2, 1)
        assert check_algebra(alg).passed

    def test_zero_point_rejected(self):
        with pytest.raises(Exception, match="nonzero"):
            PointedSpace(2, (F.zero(), F.zero()))


class TestInsertionAndTensor:
    def test_insertion_one_dimensional_a(self):
        one = Algebra(1, LinMap(F, (1, 1), (1,), ((F.one(),),)), (F.one(),))
        v = PointedSpace(3, basis_vector(F, 3, 0))
        iota = opposite_unit_insertion(one, v)
        assert iota.matrix == identity(F, (3,)).matrix

    def test_insertion_sends_point_to_unit_tensor_point(self):
        a = algebra_from_group(C2, 0, F)
        v = PointedSpace(3, basis_vector(F, 3, 1))
        iota = opposite_unit_insertion(a, v)
        assert apply(iota, v.point) == kron_vec(F, a.unit, v.point)

    def test_insertion_absorbed_by_multiplication(self):
        a = algebra_from_group(C3, 0, F)
        v = PointedSpace(2, basis_vector(F, 2, 0))
        iota = opposite_unit_insertion(a, v)
        id_a = identity(F, (3,))
        absorbed = compose(tensor_map(a.mult, identity(F, (2,))), tensor_map(id_a, iota))
        assert maps_equal(absorbed, identity(F, (3, 2)))

    def test_tensor_algebra_is_lawful_and_componentwise(self):
        a = algebra_from_group(C2, 0, F)
        b = algebra_from_group(C3, 0, F)
        ab = tensor_algebra(a, b)
        assert check_algebra(ab).passed
        x = kron_vec(F, basis_vector(F, 2, 1), basis_vector(F, 3, 2))
        y = kron_vec(F, basis_vector(F, 2, 1), basis_vector(F, 3, 1))
        assert algebra_product(ab, x, y) == kron_vec(F, basis_vector(F, 2, 0), basis_vector(F, 3, 0))

    def test_tensor_elem_product_matches_algebra(self):
        a = algebra_from_group(C2, 0, F)
        ab = tensor_algebra(a, a)
        u = kron_vec(F, basis_vector(F, 2, 1), basis_vector(F, 2, 0))
        v = kron_vec(F, basis_vector(F, 2, 1), basis_vector(F, 2, 1))
        assert tensor_elem_product(a, 2, u, v) == algebra_product(ab, u, v)
