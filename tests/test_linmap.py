import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from crosstwist import (
    LinMap,
    Rationals,
    ShapeError,
    apply,
    basis_vector,
    compose,
    first_difference,
    flip,
    identity,
    kron_vec,
    maps_equal,
    reshape,
    unflatten,
)
from oracles import SingularMapError, flat_index, invert, naive_apply, naive_matmul, tensor_map, zero_map

F = Rationals()


def rand_map(rng, dn, cn):
    rows = tuple(
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dn))
        for _ in range(cn)
    )
    return LinMap(F, (dn,), (cn,), rows)


small_entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def maps(domain, codomain):
    dn = 1
    for d in domain:
        dn *= d
    cn = 1
    for d in codomain:
        cn *= d
    return st.lists(
        st.lists(small_entries, min_size=dn, max_size=dn), min_size=cn, max_size=cn
    ).map(lambda rows: LinMap(F, domain, codomain, tuple(tuple(r) for r in rows)))


class TestFlatIndex:
    def test_examples(self):
        assert flat_index((0, 0), (2, 3)) == 0
        assert flat_index((1, 2), (2, 3)) == 5
        assert flat_index((1, 0), (2, 3)) == 3

    def test_out_of_range_names_factor(self):
        with pytest.raises(IndexError, match="factor 1"):
            flat_index((0, 3), (2, 3))

    def test_round_trip_exhaustive(self):
        for dims in [(2,), (2, 3), (4, 4, 4), (3, 1, 2)]:
            total = 1
            for d in dims:
                total *= d
            seen = set()
            for idx in product(*(range(d) for d in dims)):
                flat = flat_index(idx, dims)
                assert unflatten(flat, dims) == idx
                seen.add(flat)
            assert seen == set(range(total))


class TestCompose:
    def test_identity_laws(self):
        rng = random.Random(1)
        f = rand_map(rng, 3, 4)
        assert maps_equal(compose(identity(F, (4,)), f), f)
        assert maps_equal(compose(f, identity(F, (3,))), f)

    def test_matches_naive_oracle(self):
        rng = random.Random(7)
        for _ in range(10):
            f = rand_map(rng, 3, 3)
            g = rand_map(rng, 3, 3)
            assert maps_equal(compose(f, g), naive_matmul(f, g))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            compose(rand_map(random.Random(0), 2, 2), rand_map(random.Random(0), 3, 3))

    @settings(max_examples=25, deadline=None)
    @given(maps((2,), (2,)), maps((2,), (2,)), maps((2,), (2,)))
    def test_associativity(self, f, g, h):
        assert maps_equal(compose(f, compose(g, h)), compose(compose(f, g), h))


class TestTensorMap:
    def test_identity_tensor_identity(self):
        assert maps_equal(tensor_map(identity(F, (2,)), identity(F, (3,))), identity(F, (6,)))
        got = tensor_map(identity(F, (2,)), identity(F, (3,)))
        assert got.domain_dims == (2, 3)

    def test_scalar_case(self):
        a = LinMap(F, (1,), (1,), ((Fraction(2, 3),),))
        b = LinMap(F, (1,), (1,), ((Fraction(5, 7),),))
        assert tensor_map(a, b).matrix[0][0] == Fraction(10, 21)

    def test_acts_on_basis_pairs(self):
        rng = random.Random(3)
        f = rand_map(rng, 2, 3)
        g = rand_map(rng, 2, 2)
        fg = tensor_map(f, g)
        for i in range(2):
            for j in range(2):
                x = basis_vector(F, 2, i)
                y = basis_vector(F, 2, j)
                lhs = apply(fg, kron_vec(F, x, y))
                rhs = kron_vec(F, apply(f, x), apply(g, y))
                assert lhs == rhs

    @settings(max_examples=25, deadline=None)
    @given(maps((2,), (2,)), maps((2,), (2,)), maps((2,), (2,)), maps((2,), (2,)))
    def test_interchange_law(self, f, g, f2, g2):
        lhs = compose(tensor_map(f, g), tensor_map(f2, g2))
        rhs = tensor_map(compose(f, f2), compose(g, g2))
        assert maps_equal(lhs, rhs)


class TestApply:
    def test_identity_and_zero(self):
        v = (Fraction(1), Fraction(-2), Fraction(1, 3))
        assert apply(identity(F, (3,)), v) == v
        assert apply(zero_map(F, (3,), (2,)), v) == (Fraction(0), Fraction(0))

    def test_matches_naive_oracle(self):
        rng = random.Random(11)
        f = rand_map(rng, 4, 4)
        v = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
        assert apply(f, v) == naive_apply(f, v)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            apply(identity(F, (3,)), (Fraction(1),))


class TestMapsEqual:
    def test_reflexive_and_distinct(self):
        f = rand_map(random.Random(5), 2, 2)
        assert maps_equal(f, f)
        assert not maps_equal(identity(F, (2,)), zero_map(F, (2,), (2,)))

    def test_two_factorizations_agree(self):
        rng = random.Random(9)
        f, g = rand_map(rng, 2, 2), rand_map(rng, 2, 2)
        f2, g2 = rand_map(rng, 2, 2), rand_map(rng, 2, 2)
        assert maps_equal(
            compose(tensor_map(f, g), tensor_map(f2, g2)),
            tensor_map(compose(f, f2), compose(g, g2)),
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            maps_equal(identity(F, (2,)), identity(F, (3,)))

    def test_first_difference_deterministic(self):
        f = identity(F, (2, 2))
        g = zero_map(F, (2, 2), (2, 2))
        assert first_difference(f, g)[0] == (0, 0)


class TestMisc:
    def test_flip_swaps(self):
        fl = flip(F, 2, 3)
        for i in range(2):
            for j in range(3):
                got = apply(fl, kron_vec(F, basis_vector(F, 2, i), basis_vector(F, 3, j)))
                assert got == kron_vec(F, basis_vector(F, 3, j), basis_vector(F, 2, i))

    def test_reshape_preserves_entries(self):
        f = identity(F, (2, 3))
        g = reshape(f, (6,), (6,))
        assert g.matrix == f.matrix
        with pytest.raises(ShapeError):
            reshape(f, (5,), (6,))

    def test_invert_round_trip(self):
        rng = random.Random(13)
        while True:
            f = rand_map(rng, 3, 3)
            try:
                g = invert(f)
                break
            except SingularMapError:
                continue
        assert maps_equal(compose(f, g), identity(F, (3,)))
        assert maps_equal(compose(g, f), identity(F, (3,)))

    def test_invert_singular_raises(self):
        with pytest.raises(SingularMapError):
            invert(zero_map(F, (2,), (2,)))

    def test_matrix_entries_validated(self):
        with pytest.raises(ShapeError):
            LinMap(F, (2,), (2,), ((Fraction(1),),))
