"""The wiring kernel and the sparse products against their dense forms in ``oracles``.

Each example draws maps (or algebra elements) of random factor shapes,
including 1-dimensional factors, at a sparsity from all-zero to all-nonzero,
with some whole rows and columns forced to zero.  The kernels must agree
with the dense oracles entry for entry, keep the factor dims, and hold only
canonical scalars, so the maps they build without revalidation would pass
``LinMap.__post_init__`` unchanged.  Wirings of (map, lead) steps, elements
inserted as maps on no legs among them, are checked against the
identity-padded chain of dense products, the steps of an element acting on B
legs against the dense expansion of its terms, and the column-by-column law
scan against the dense scan of both full composites.  The batched pushes
(``_Wiring.to_map`` and ``first_difference``) are checked against the same
wiring pushed one basis column at a time (``oracles.column_scan_map`` and
``column_scan_first_difference``), on 512 and 576 columns: a single
differing entry at each edge of the batch schedule and of its cap, several
differences in one batch, entries that cancel within a column, opposite
columns, element insertions and (f, None) steps, and ``phi_mult`` on a phi
with one bumped entry against the two full product maps it once built.
Products in tensor
powers (up to four legs) also draw single-nonzero factors and factors whose
terms cancel, and chained products of three to five factors are checked
against the pairwise fold of the dense product.  The sparse columns a map
stores, is read as (``_columns``, at any stride) and is built from
(``_from_columns``) are checked against a dense scan, and the 0/1 maps and
``MapBuilder`` built from them against their dense constructions.  The
public constructor, ``_from_columns`` given columns in shuffled order, a
wiring, ``reshape`` and ``MapBuilder`` store the same columns, maps are
equal exactly when field, dims and matrix agree, copies and reshapes share
the stored tuples, and the constructor refuses bad rows with the same
messages as the dense store did.  Products in tensor powers run on Python ints:
deterministic chains over Q (a table whose common denominator is 2, with
constants equal to one and to 1/2, and factors with mixed denominators)
and over GF(5) and GF(2**61 - 1) (where a missed reduction would leave an
entry out of range) are checked against the dense fold.  A counting field
pins that such a product calls no field multiplication or addition and
checks each factor entry once, zeros included, that a push through a 0/1
map multiplies nothing, and that building a 0/1 map checks no entry.  The
builders that push A's triple product as two ``mult`` steps
(``crossed_mult``, ``make_r_prime``, ``make_sigma_prime``, ``oracles.mu2``) are
checked against the index-sum oracles on an algebra whose structure
constants are not 0/1.
"""

import copy
import dataclasses
import functools
import random
from fractions import Fraction
from functools import partial, reduce
from itertools import permutations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from crosstwist import (
    Algebra,
    CrossedData,
    FieldError,
    LinMap,
    MapBuilder,
    PrimeField,
    Rationals,
    RightModuleAlgebra,
    ShapeError,
    TwistingMapData,
    algebra_from_group,
    apply,
    apply_twist,
    build_crossed_product,
    check_algebra,
    compose,
    crossed_mult,
    flip,
    group_like_bialgebra,
    identity,
    kron_vec,
    make_r_prime,
    make_sigma_prime,
    maps_equal,
    reshape,
    tensor_elem_product,
    trivial_pair,
    twisted_tensor_product,
    unflatten,
    verify_twist_result,
)
from crosstwist.corpus import _acting
from crosstwist.linmap import _columns, _element, _from_columns, _Wiring
from crosstwist.report import law_from_maps
from oracles import (
    column_scan_first_difference,
    column_scan_map,
    dense_columns,
    dense_compose,
    dense_first_difference,
    dense_flip,
    dense_group_like_comult,
    dense_group_like_counit,
    dense_group_mult,
    dense_identity,
    dense_leg_action,
    dense_map_builder,
    dense_tensor_elem_product,
    dense_tensor_map,
    invert,
    mu2,
    naive_apply,
    random_matrix_map,
    random_twist_pair,
    sweedler_crossed_product,
    sweedler_r_prime,
    sweedler_sigma_prime,
    tensor_map,
    triple_product_table,
)

FIELDS = (Rationals(), PrimeField(5))
DENSITIES = (0.0, 0.1, 0.5, 0.9, 1.0)
SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def is_canonical(field, x) -> bool:
    if isinstance(field, Rationals):
        return type(x) is Fraction
    return type(x) is int and 0 <= x < field.p


def assert_canonical(f: LinMap) -> None:
    assert all(is_canonical(f.field, x) for row in f.matrix for x in row)
    LinMap(f.field, f.domain_dims, f.codomain_dims, f.matrix)


def assert_same(new: LinMap, old: LinMap) -> None:
    assert new.matrix == old.matrix
    assert (new.domain_dims, new.codomain_dims) == (old.domain_dims, old.codomain_dims)
    assert_canonical(new)


factor_dims = st.lists(st.integers(1, 3), min_size=1, max_size=3)


@st.composite
def scalars(draw, field, count):
    """``count`` scalars of ``field``, each nonzero with a drawn probability."""
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from(DENSITIES))

    def nonzero():
        if isinstance(field, Rationals):
            return Fraction(rnd.choice((-3, -2, -1, 1, 2, 5)), rnd.choice((1, 2, 3)))
        return rnd.randrange(1, field.p)

    return [nonzero() if rnd.random() < density else field.zero() for _ in range(count)]


@st.composite
def linmaps(draw, field, domain_dims=None, codomain_dims=None):
    domain_dims = tuple(draw(factor_dims) if domain_dims is None else domain_dims)
    codomain_dims = tuple(draw(factor_dims) if codomain_dims is None else codomain_dims)
    dt, ct = prod(domain_dims), prod(codomain_dims)
    flat = draw(scalars(field, dt * ct))
    rows = [flat[i * dt:(i + 1) * dt] for i in range(ct)]
    zero_rows = draw(st.sets(st.integers(0, ct - 1), max_size=ct))
    zero_cols = draw(st.sets(st.integers(0, dt - 1), max_size=dt))
    for i, row in enumerate(rows):
        for j in range(dt):
            if i in zero_rows or j in zero_cols:
                row[j] = field.zero()
    return LinMap(field, domain_dims, codomain_dims, tuple(map(tuple, rows)))


@st.composite
def composable_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    g = draw(linmaps(field))
    f = draw(linmaps(field, domain_dims=g.codomain_dims))
    return f, g


@st.composite
def tensor_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    return draw(linmaps(field)), draw(linmaps(field))


@st.composite
def elements(draw, field, count):
    """``count`` scalars as ``scalars`` draws them, or a single nonzero entry."""
    if draw(st.booleans()):
        return draw(scalars(field, count))
    out = [field.zero()] * count
    out[draw(st.integers(0, count - 1))] = field.from_int(draw(st.integers(1, 4)))
    return out


@st.composite
def cancelling_product(draw, field, m, k):
    """A group algebra of Z/m and u, v in its k-th power whose product has
    terms that cancel: on one leg u has the norm element sum_g e_g and v has
    e_0 - e_h, so that leg of every term sums to zero.  With a random term
    added to u, only part of the product cancels."""
    algebra = algebra_from_group([[(i + j) % m for j in range(m)] for i in range(m)], 0, field)
    leg, h = draw(st.integers(0, k - 1)), draw(st.integers(1, m - 1))
    norm, diff = [field.one()] * m, [field.zero()] * m
    diff[0], diff[h] = field.one(), field.neg(field.one())
    u_legs = [norm if t == leg else draw(elements(field, m)) for t in range(k)]
    v_legs = [diff if t == leg else draw(elements(field, m)) for t in range(k)]
    u, v = (reduce(partial(kron_vec, field), legs) for legs in (u_legs, v_legs))
    if draw(st.booleans()):
        u = [field.add(a, b) for a, b in zip(u, draw(elements(field, m**k)))]
    return algebra, k, u, v


@st.composite
def power_products(draw):
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4 if m <= 2 else 2))
    if m > 1 and draw(st.integers(0, 3)) == 0:
        return draw(cancelling_product(field, m, k))
    mult = draw(linmaps(field, (m, m), (m,)))
    algebra = Algebra(m, mult, tuple(draw(scalars(field, m))))
    return algebra, k, draw(elements(field, m**k)), draw(elements(field, m**k))


@SETTINGS
@given(composable_pairs())
def test_compose_matches_dense_oracle(pair):
    f, g = pair
    assert_same(compose(f, g), dense_compose(f, g))


@SETTINGS
@given(tensor_pairs())
def test_tensor_map_matches_dense_oracle(pair):
    f, g = pair
    assert_same(tensor_map(f, g), dense_tensor_map(f, g))


@SETTINGS
@given(power_products())
def test_tensor_elem_product_matches_dense_oracle(case):
    algebra, k, u, v = case
    new = tensor_elem_product(algebra, k, u, v)
    assert new == dense_tensor_elem_product(algebra, k, u, v)
    assert len(new) == algebra.dim**k
    assert all(is_canonical(algebra.field, x) for x in new)


def test_tensor_elem_product_refuses_wrong_lengths():
    field = FIELDS[0]
    z2 = algebra_from_group(((0, 1), (1, 0)), 0, field)
    four, five = [field.one()] * 4, [field.one()] * 5
    for k, u, v in ((2, four, five), (2, five, four), (3, four, four), (0, [field.one()], [field.one()])):
        with pytest.raises(ShapeError):
            tensor_elem_product(z2, k, u, v)


@st.composite
def chained_products(draw):
    """An algebra that is most often not associative, k, and three to five
    elements of its k-th tensor power."""
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3 if m <= 2 else 2))
    algebra = Algebra(m, draw(linmaps(field, (m, m), (m,))), tuple(draw(scalars(field, m))))
    factors = [draw(elements(field, m**k)) for _ in range(draw(st.integers(3, 5)))]
    return algebra, k, factors


@SETTINGS
@given(chained_products())
def test_chained_product_matches_pairwise_dense_fold(case):
    algebra, k, factors = case
    want = factors[-1]
    for u in reversed(factors[:-1]):  # u (v (w ...)), as validate reads laws on documents
        want = dense_tensor_elem_product(algebra, k, u, want)
    assert tensor_elem_product(algebra, k, *factors) == want


def test_chained_product_refuses_any_factor_of_wrong_length():
    field = FIELDS[1]
    z2 = algebra_from_group(((0, 1), (1, 0)), 0, field)
    good, bad = [field.one()] * 4, [field.one()] * 5
    for n in (3, 4, 5):
        for wrong in range(n):
            with pytest.raises(ShapeError):
                tensor_elem_product(z2, 2, *(bad if t == wrong else good for t in range(n)))


@SETTINGS
@given(st.sampled_from(FIELDS).flatmap(lambda field: st.tuples(linmaps(field), st.data())))
def test_apply_matches_dense_oracle(case):
    f, data = case
    v = tuple(data.draw(scalars(f.field, f.domain_total)))
    got = apply(f, v)
    assert got == naive_apply(f, v)
    assert all(is_canonical(f.field, x) for x in got)


@st.composite
def wirings(draw, field, legs):
    """(steps, dense chain): up to four (map, lead) steps on ``legs``, each on
    one or two adjacent legs or, with lead None, on all of them by total, or an
    element (a map on no legs) inserted at any lead from 0 to the number of
    legs, or with lead None in place of legs of total 1; and the composite of
    the same maps padded with identities by dense products."""
    dims, steps, chain = tuple(legs), [], None
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("all", "some", "element")))
        if kind == "element":
            k, domain = 0, ()
            lead = None if prod(dims) == 1 and draw(st.booleans()) else draw(st.integers(0, len(dims)))
            if lead is None:
                k = len(dims)
        elif kind == "all" and prod(dims) <= 12:
            lead, k = None, len(dims)
            domain = (prod(dims),)
        else:
            lead = draw(st.integers(0, len(dims) - 1))
            k = draw(st.integers(1, min(2, len(dims) - lead)))
            domain = dims[lead : lead + k]
        rest = prod(dims) // prod(domain)
        codomain = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
        if rest * prod(codomain) > 36:
            codomain = (1,)
        f = draw(linmaps(field, domain, codomain))
        steps.append((f, lead))
        left, right = (dims[:lead], dims[lead + k :]) if lead is not None else ((), ())
        padded = f
        if left:
            padded = dense_tensor_map(identity(field, left), padded)
        if right:
            padded = dense_tensor_map(padded, identity(field, right))
        chain = padded if chain is None else dense_compose(padded, chain)
        dims = left + codomain + right
    return steps, reshape(chain, legs, chain.codomain_dims)


@st.composite
def wired(draw):
    field = draw(st.sampled_from(FIELDS))
    legs = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    return (legs,) + draw(wirings(field, legs))


@SETTINGS
@given(wired())
def test_wiring_matches_identity_padded_chain(case):
    legs, steps, chain = case
    assert_same(_Wiring(legs, steps).to_map(), chain)


def cancelling(field, total):
    """Steps x -> (x, x) -> (1 + J)x - Jx on (total,), J the all-ones matrix:
    the identity, written so that each zero entry of x gets the terms sum(x)
    and -sum(x), which cancel."""
    one, zero = field.one(), field.zero()
    rows = tuple(tuple(one if r % total == t else zero for t in range(total)) for r in range(2 * total))
    copy = LinMap(field, (total,), (2, total), rows)
    rows = tuple(
        tuple(field.add(one, one) if t == i else one for t in range(total)) + (field.neg(one),) * total
        for i in range(total)
    )
    return [(copy, None), (LinMap(field, (2, total), (total,), rows), 0)]


@st.composite
def scanned(draw):
    """Legs, two wirings on them with equal output totals, and their dense
    composites.  The left side may end in steps whose sum is the identity but
    whose terms cancel.  The right side is the left composite as one step, as
    it is or with one entry bumped, or a wiring of its own ending in a map
    onto the left side's output dims."""
    legs, lhs, dense_lhs = draw(wired())
    field = dense_lhs.field
    if draw(st.booleans()):
        steps = cancelling(field, dense_lhs.codomain_total)
        lhs = lhs + steps
        for f, _ in steps:
            dense_lhs = dense_compose(f, dense_lhs)
    kind = draw(st.sampled_from(("same", "bumped", "other")))
    if kind == "other":
        rhs, dense_rhs = draw(wirings(field, legs))
        last = draw(linmaps(field, dense_rhs.codomain_dims, dense_lhs.codomain_dims))
        return legs, lhs, dense_lhs, rhs + [(last, 0)], dense_compose(last, dense_rhs)
    target = dense_lhs
    if kind == "bumped":
        row = draw(st.integers(0, target.codomain_total - 1))
        col = draw(st.integers(0, target.domain_total - 1))
        rows = [list(r) for r in target.matrix]
        rows[row][col] = field.add(rows[row][col], field.one())
        target = LinMap(field, target.domain_dims, target.codomain_dims, tuple(map(tuple, rows)))
    return legs, lhs, dense_lhs, [(target, None)], target


@SETTINGS
@given(scanned())
def test_lazy_scan_matches_dense_scan(case):
    legs, lhs, dense_lhs, rhs, dense_rhs = case
    want = dense_first_difference(dense_lhs, dense_rhs)
    got = _Wiring(legs, lhs).first_difference(rhs)
    assert got == want
    check = law_from_maps("assoc", legs, lhs, rhs)
    assert check.passed == (want is None)
    if want is not None:
        col, row, a, b = got
        assert all(is_canonical(dense_lhs.field, x) for x in (a, b))
        assert check.first_counterexample == col
        assert check.detail == f"lhs[{row}] = {a}, rhs[{row}] = {b} on basis input {col}"


@st.composite
def leg_actions(draw):
    """A right module algebra B over H, lead 0..1, legs 1..3 and an element x of
    H^(x)(lead + legs) that is all-zero, single-nonzero or dense."""
    field = draw(st.sampled_from(FIELDS))
    lead, legs = draw(st.integers(0, 1)), draw(st.integers(1, 3))
    top = 3 if lead + legs <= 2 else 2
    m, nb = draw(st.integers(1, top)), draw(st.integers(1, top))
    b = RightModuleAlgebra(
        dim=nb,
        mult=draw(linmaps(field, (nb, nb), (nb,))),
        unit=tuple(draw(scalars(field, nb))),
        action=draw(linmaps(field, (nb, m), (nb,))),
    )
    return b, draw(elements(field, m ** (lead + legs))), lead, legs


@SETTINGS
@given(leg_actions())
def test_acting_steps_match_dense_leg_action(case):
    b, x, lead, legs = case
    got = _Wiring((b.dim,) * legs, _acting(b, x, lead, legs)).to_map()
    assert_same(got, dense_leg_action(b, x, lead, legs))


def test_leads_outside_the_legs_are_refused():
    field = FIELDS[0]
    x = _element(field, (2,), (field.one(), field.from_int(3)))
    assert _Wiring((3,), [(x, 0)]).dims == (2, 3)
    assert _Wiring((3,), [(x, 1)]).dims == (3, 2)
    one_leg = identity(field, (3,))
    for legs, steps in (
        ((3,), [(x, 7)]),
        ((3,), [(x, 2)]),
        ((3,), [(x, -1)]),
        ((2, 3, 3), [(one_leg, -2)]),
        ((3,), [(x, 0), (x, 3)]),
    ):
        with pytest.raises(ShapeError, match="does not fit"):
            _Wiring(legs, steps)


def test_steps_over_different_fields_are_refused():
    q, gf5 = FIELDS
    f = identity(q, (2,))
    g = identity(gf5, (2,))
    for build in (
        lambda: _Wiring((2,), [(f, 0), (g, 0)]),
        lambda: _Wiring((2,), [(f, 0)]).first_difference([(g, 0)]),
        lambda: compose(f, g),
        lambda: tensor_map(f, g),
    ):
        with pytest.raises(ShapeError, match="field mismatch"):
            build()


@SETTINGS
@given(
    st.sampled_from(FIELDS).flatmap(lambda field: st.one_of(linmaps(field), linmaps(field, domain_dims=()))),
    st.integers(1, 9),
)
def test_columns_match_dense_scan_and_rebuild_the_map(f, stride):
    cols, dense = _columns(f), dense_columns(f)
    assert cols == dense
    assert _columns(f, stride) == tuple(tuple((i * stride, a) for i, a in col) for col in dense)
    one = f.field.one()
    sparse = [{i: one if a is None else a for i, a in col} for col in cols]
    assert_same(_from_columns(f.field, f.domain_dims, f.codomain_dims, sparse), f)


@st.composite
def same_shape_maps(draw):
    """Two maps over one field with the same dims, and a seeded shuffler."""
    f = draw(st.sampled_from(FIELDS).flatmap(linmaps))
    return f, draw(linmaps(f.field, f.domain_dims, f.codomain_dims)), draw(st.randoms(use_true_random=False))


@settings(SETTINGS, max_examples=50)
@given(same_shape_maps())
def test_every_builder_stores_the_same_columns(args):
    """The public constructor, ``_from_columns`` (columns given in shuffled
    dict order), a wiring, ``reshape`` and ``MapBuilder`` build one map; two
    maps are equal, and hash equal, exactly when field, dims and matrix agree."""
    f, g, rnd = args
    field, dd, cd, rows = f.field, f.domain_dims, f.codomain_dims, f.matrix
    entries = [(i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
    rnd.shuffle(entries)
    cols, builder = [{} for _ in range(f.domain_total)], MapBuilder(field, dd, cd)
    for i, j, x in entries:
        cols[j][i] = x
        builder.add(i, j, x)
    flat = reshape(f, (f.domain_total,), (f.codomain_total,))
    for h in (
        LinMap(field, dd, cd, rows),
        _from_columns(field, dd, cd, cols),
        _Wiring(dd, [(f, 0)]).to_map(),
        reshape(flat, dd, cd),
        builder.build(),
    ):
        assert h == f and hash(h) == hash(f) and h.matrix == rows
    assert (g == f) == (g.matrix == rows)
    assert g != f or hash(g) == hash(f)
    assert (flat == f) == ((dd, cd) == ((f.domain_total,), (f.codomain_total,)))
    assert hash(rows) == hash(LinMap(field, dd, cd, rows).matrix)


def test_maps_over_different_fields_differ_with_equal_columns():
    q, gf5 = FIELDS
    assert _columns(identity(q, (2, 3))) == _columns(identity(gf5, (2, 3)))
    assert identity(q, (2, 3)) != identity(gf5, (2, 3))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_copies_and_reshapes_share_the_column_storage(field):
    """The stored columns are tuples of canonical scalars, so a deep copy (as
    the benchmark makes of its inputs on every pass) and a reshape share them."""
    half = field.inv(field.from_int(2))
    f = LinMap(field, (2, 2), (3,), ((half, 0, 1, 0), (0, 0, 0, 0), (1, field.from_int(3), 0, half)))
    g = compose(f, flip(field, 2, 2))
    for original in (f, g):
        for copied in (copy.deepcopy(original), copy.copy(original), reshape(original, (4,), (3, 1))):
            assert copied._cols is original._cols
        assert copy.deepcopy(original) == original


SHAPE_2X2 = "does not match codomain total 2 x domain total 2"


@pytest.mark.parametrize(
    "field, rows, error, message",
    [
        (PrimeField(5), ((1, 5), (0, 1)), FieldError, "not a canonical GF(5) scalar: 5"),
        (PrimeField(5), ((True, 0), (0, 1)), FieldError, "not a canonical GF(5) scalar: True"),
        (Rationals(), ((Fraction(1), 0.5), (0, 1)), FieldError, "not a rational scalar: 0.5"),
        (PrimeField(5), ((1, 0), (1,)), ShapeError, f"matrix shape 2x2 {SHAPE_2X2}"),
        (Rationals(), ((1, 0), (1, 2), (0, 0)), ShapeError, f"matrix shape 3x2 {SHAPE_2X2}"),
        (PrimeField(5), ((1,), (1, 0, 7)), FieldError, "not a canonical GF(5) scalar: 7"),
    ],
    ids=["gf5-out-of-range", "gf5-bool", "q-float", "ragged", "too-many-rows", "bad-entry-past-the-shortest-row"],
)
def test_constructor_refuses_bad_rows_with_the_same_messages(field, rows, error, message):
    with pytest.raises(error) as info:
        LinMap(field, (2,), (2,), rows)
    assert str(info.value) == message


S3 = sorted(permutations(range(3)))
S3_TABLE = tuple(tuple(S3.index(tuple(p[x] for x in q)) for q in S3) for p in S3)
GROUP_TABLES = (
    ((0,),),
    ((0, 1), (1, 0)),
    tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3)),
    tuple(tuple(i ^ j for j in range(4)) for i in range(4)),
    S3_TABLE,
)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_constant_maps_match_dense_constructions(field):
    for dims in ((1,), (3,), (2, 3), (2, 1, 2), ()):
        assert_same(identity(field, dims), dense_identity(field, dims))
    for x in range(1, 4):
        for y in range(1, 4):
            assert_same(flip(field, x, y), dense_flip(field, x, y))
    for table in GROUP_TABLES:
        algebra = algebra_from_group(table, 0, field)
        assert_same(algebra.mult, dense_group_mult(table, field))
        quasi = group_like_bialgebra(algebra)
        assert_same(quasi.comult, dense_group_like_comult(field, algebra.dim))
        assert_same(quasi.counit, dense_group_like_counit(field, algebra.dim))


@st.composite
def builder_entries(draw):
    """Dims and (row, col, value) entries, repeated positions among them, with
    values from -2 to 2 so that some sums cancel to zero."""
    field = draw(st.sampled_from(FIELDS))
    domain, codomain = tuple(draw(factor_dims)), tuple(draw(factor_dims))
    position = st.tuples(st.integers(0, prod(codomain) - 1), st.integers(0, prod(domain) - 1))
    values = st.integers(-2, 2).map(field.from_int)
    return field, domain, codomain, draw(st.lists(st.tuples(position, values), max_size=30))


@SETTINGS
@given(builder_entries())
def test_map_builder_matches_dense_accumulation(case):
    field, domain, codomain, entries = case
    builder = MapBuilder(field, domain, codomain)
    for (row, col), value in entries:
        builder.add(row, col, value)
    want = dense_map_builder(field, domain, codomain, [(r, c, v) for (r, c), v in entries])
    assert_same(builder.build(), want)


@pytest.mark.parametrize(
    "field, value",
    [(FIELDS[0], True), (FIELDS[0], 0.5), (FIELDS[1], True), (FIELDS[1], 0.5), (FIELDS[1], 7), (FIELDS[1], -1)],
)
def test_map_builder_add_refuses_a_bad_scalar(field, value):
    builder = MapBuilder(field, (2,), (2,))
    with pytest.raises(FieldError):
        builder.add(0, 1, value)


@pytest.mark.parametrize("row, col", [(-1, 0), (0, -1), (6, 0), (0, 2), (-6, -2)])
def test_map_builder_add_refuses_a_position_outside_the_shape(row, col):
    """Rows lie in [0, 6) and columns in [0, 2): no index counts from the end."""
    builder = MapBuilder(FIELDS[1], (2,), (2, 3))
    builder.add(5, 1, 3)
    with pytest.raises(IndexError, match="out of range"):
        builder.add(row, col, 1)
    assert_same(builder.build(), dense_map_builder(FIELDS[1], (2,), (2, 3), [(5, 1, 3)]))


class CountingField(PrimeField):
    """GF(p) that counts its multiplications in ``muls``, its additions in
    ``adds`` and its checks in ``checks``."""

    def __init__(self, p):
        super().__init__(p)
        object.__setattr__(self, "muls", 0)
        object.__setattr__(self, "adds", 0)
        object.__setattr__(self, "checks", 0)

    def mul(self, a, b):
        object.__setattr__(self, "muls", self.muls + 1)
        return super().mul(a, b)

    def add(self, a, b):
        object.__setattr__(self, "adds", self.adds + 1)
        return super().add(a, b)

    def check(self, a):
        object.__setattr__(self, "checks", self.checks + 1)
        return super().check(a)


class TestFieldOpCounts:
    def test_power_product_on_ints_checks_each_entry_once(self):
        field = CountingField(5)
        c2_squared = algebra_from_group([[i ^ j for j in range(4)] for i in range(4)], 0, field)
        u = [1 + i % 4 for i in range(64)]
        v = [(i % 3) * (1 + i % 4) % 5 for i in range(64)]  # a third zeros, each still checked
        before = field.muls, field.adds, field.checks
        got = tensor_elem_product(c2_squared, 3, u, v)
        assert (field.muls, field.adds) == before[:2]
        assert field.checks - before[2] == len(u) + len(v)
        assert got == dense_tensor_elem_product(c2_squared, 3, u, v)

    def test_pushing_through_a_flip_multiplies_nothing(self):
        field = CountingField(5)
        swap = flip(field, 3, 4)
        before = field.muls
        got = _Wiring((3, 4), [(swap, 0)]).push({j: 1 + j % 4 for j in range(12)})
        assert field.muls == before
        assert got == {q * 3 + p: 1 + (p * 4 + q) % 4 for p in range(3) for q in range(4)}

    def test_building_constant_maps_checks_no_entry(self):
        field = CountingField(5)
        flip(field, 3, 4)
        identity(field, (2, 3))
        assert field.checks == 0
        algebra_from_group(GROUP_TABLES[3], 0, field)
        # none of the 64 structure constants: the 4 checks are the Algebra constructor's, on the unit
        assert field.checks == 4



def upper_triangular(field) -> Algebra:
    """Upper-triangular 2x2 matrices in the basis 1, e11 + 2 e12, e12 + e22, whose
    structure constants are not single entries equal to one."""
    basis = ((1, 0, 1), (1, 2, 0), (0, 1, 1))  # (a, b, d) for the matrix [[a, b], [0, d]]
    to_std = LinMap(field, (3,), (3,), tuple(tuple(map(field.from_int, row)) for row in zip(*basis)))
    coords = invert(to_std)
    cols = [
        apply(coords, tuple(map(field.from_int, (a * a2, a * b2 + b * d2, d * d2))))
        for a, b, d in basis
        for a2, b2, d2 in basis
    ]
    mult = LinMap(field, (3, 3), (3,), tuple(zip(*cols)))
    return Algebra(3, mult, (field.one(), field.zero(), field.zero()), label="T2")


def half_quadratic(field) -> Algebra:
    """Q[x]/(x^2 - x - 1/2) in the basis 1, x: the structure constants have the
    common denominator 2, so each constant equal to one scales to 2 and the
    constant 1/2 scales to one."""
    one, zero, half = field.one(), field.zero(), field.from_fraction(Fraction(1, 2))
    cols = ((one, zero), (zero, one), (zero, one), (half, one))  # e_i e_j in column i*2 + j
    return Algebra(2, LinMap(field, (2, 2), (2,), tuple(zip(*cols))), (one, zero), label="half")


def mixed_factors(field, count, total, rnd):
    """``count`` factors of length ``total``: over Q with the denominators 1..7 mixed
    in each factor, over GF(p) spread over the whole range; about a quarter zeros."""

    def entry():
        if rnd.random() < 0.25:
            return field.zero()
        if isinstance(field, Rationals):
            return Fraction(rnd.choice((-5, -3, -1, 1, 2, 4)), rnd.randint(1, 7))
        return rnd.randrange(field.p)

    return [[entry() for _ in range(total)] for _ in range(count)]


INTEGER_PUSH_FIELDS = (Rationals(), PrimeField(5), PrimeField(2**61 - 1))


@pytest.mark.parametrize("field", INTEGER_PUSH_FIELDS, ids=lambda f: f.describe())
@pytest.mark.parametrize("make_algebra", [half_quadratic, upper_triangular], ids=lambda f: f.__name__)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_integer_push_matches_the_dense_fold(field, make_algebra, k):
    """Chains of two to five factors against the pairwise fold of the dense
    product; over Q each factor's entries have different denominators, and
    over GF(2**61 - 1) a missed reduction would leave an entry out of range."""
    algebra = make_algebra(field)
    rnd = random.Random(f"{field.describe()}/{algebra.label}/{k}")
    for count in (2, 3, 4, 5):
        factors = mixed_factors(field, count, algebra.dim**k, rnd)
        want = factors[-1]
        for u in reversed(factors[:-1]):
            want = dense_tensor_elem_product(algebra, k, u, want)
        got = tensor_elem_product(algebra, k, *factors)
        assert got == tuple(want)
        assert all(is_canonical(field, x) for x in got)
        if isinstance(field, Rationals):
            assert all(gcd(x.numerator, x.denominator) == 1 and x.denominator > 0 for x in got)


def test_half_quadratic_products_by_hand():
    """Over Q: x x = 1/2 + x, 1 x = x, and (x (x) x)(x (x) x) = (1/2 + x) (x) (1/2 + x),
    so the scaled constant equal to one (1/2) and those scaled past it (1) both count."""
    field = Rationals()
    algebra = half_quadratic(field)
    one, x = (field.one(), field.zero()), (field.zero(), field.one())
    assert tensor_elem_product(algebra, 1, x, x) == (Fraction(1, 2), 1)
    assert tensor_elem_product(algebra, 1, one, x) == x
    xx = (0, 0, 0, 1)
    assert tensor_elem_product(algebra, 2, xx, xx) == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), 1)


def flip_t2_c2(field) -> CrossedData:
    """The tensor product of T2 (``upper_triangular``) and kC2, twisted by the flip."""
    c2 = algebra_from_group(GROUP_TABLES[1], 0, field)
    return twisted_tensor_product(TwistingMapData(upper_triangular(field), c2, flip(field, 2, 3)))


def twist_cases():
    """``flip_t2_c2`` with the trivial pair and a seeded random pair, over each field."""
    for field in FIELDS:
        data = flip_t2_c2(field)
        yield pytest.param(data, trivial_pair(data.a, data.v), id=f"{field.describe()}-trivial")
        pair = random_twist_pair(data.a, data.v, random.Random(field.describe()))
        yield pytest.param(data, pair, id=f"{field.describe()}-random")


class TestTwoStepTripleProduct:
    """The builders that push A's triple product as two mult steps, against the
    index-sum oracles, on an algebra whose structure constants are not 0/1."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_structure_constants_are_not_0_1(self, field):
        a = upper_triangular(field)
        assert check_algebra(a).passed
        assert any(x not in (field.zero(), field.one()) for row in a.mult.matrix for x in row)
        assert any(sum(1 for x in a.mult.column(j) if x) > 1 for j in range(9))

    @pytest.mark.parametrize("data, pair", twist_cases())
    def test_products_and_twisted_maps_match_the_sweedler_oracles(self, data, pair):
        assert maps_equal(crossed_mult(data), sweedler_crossed_product(data))
        assert maps_equal(make_r_prime(data, pair), sweedler_r_prime(data, pair))
        assert maps_equal(make_sigma_prime(data, pair), sweedler_sigma_prime(data, pair))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_mu2_matches_the_triple_product_table(self, field):
        data = flip_t2_c2(field)
        for algebra in (data.a, build_crossed_product(data)):
            m, triple = algebra.dim, mu2(algebra)
            left, right = triple_product_table(algebra)
            for (i, j, k), want in right.items():
                assert triple.column((i * m + j) * m + k) == want == left[(i, j, k)]


def dense_chain(legs, steps) -> LinMap:
    """The composite of (map, lead) steps by dense products of the maps padded
    with identities; lead None feeds a map every leg."""
    dims, chain = tuple(legs), None
    for f, lead in steps:
        k = len(dims) if lead is None else len(f.domain_dims)
        left, right = (dims[:lead], dims[lead + k :]) if lead is not None else ((), ())
        field = f.field
        padded = f
        if left:
            padded = dense_tensor_map(identity(field, left), padded)
        if right:
            padded = dense_tensor_map(padded, identity(field, right))
        chain = padded if chain is None else dense_compose(padded, chain)
        dims = left + f.codomain_dims + right
    return reshape(chain, legs, dims)


@functools.cache
def late_wiring(field):
    """Legs (4, 12, 12), so 576 basis columns: batches of 1, 2, 4, ..., 256
    columns start at 0, 1, 3, 7, ..., 255, and the second batch at the cap starts
    at 511 and is cut at 576.  The steps apply a map to the last two legs,
    insert an element at lead 1 and apply a map to all legs by total (lead
    None); entries are seeded, in -2..2 and mostly not 0/1.  Returns the legs,
    the steps and their dense composite."""
    rng = random.Random(f"late/{field.describe()}")
    f = random_matrix_map(field, (12, 12), (3,), rng)
    x = _element(field, (2,), (field.from_int(2), field.from_int(-1)))
    g = random_matrix_map(field, (24,), (2, 5), rng)
    legs, steps = (4, 12, 12), [(f, 1), (x, 1), (g, None)]
    return legs, steps, dense_chain(legs, steps)


def bumped(f: LinMap, *entries) -> LinMap:
    """``f`` with one added to each (row, column) entry."""
    rows = [list(r) for r in f.matrix]
    for i, j in entries:
        rows[i][j] = f.field.add(rows[i][j], f.field.one())
    return LinMap(f.field, f.domain_dims, f.codomain_dims, tuple(map(tuple, rows)))


EDGE_COLUMNS = (0, 1, 2, 3, 7, 8, 255, 256, 257, 510, 511, 575)


class TestBatchedPushes:
    """``_Wiring.to_map`` and ``first_difference`` push basis columns in batches;
    they must agree with the same wiring pushed one column at a time (the
    oracle in ``oracles``) and with the dense composite."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_to_map_matches_the_column_scan_and_the_dense_chain(self, field):
        legs, steps, dense = late_wiring(field)
        got = _Wiring(legs, steps).to_map()
        assert_same(got, column_scan_map(legs, steps))
        assert_same(got, dense_chain(legs, steps))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("j", EDGE_COLUMNS)
    def test_single_entry_difference_at_each_batch_edge(self, field, j):
        legs, steps, dense = late_wiring(field)
        assert dense.domain_total == EDGE_COLUMNS[-1] + 1
        row = j % dense.codomain_total
        rhs = [(bumped(dense, (row, j)), None)]
        got = _Wiring(legs, steps).first_difference(rhs)
        assert got == column_scan_first_difference(legs, steps, rhs)
        assert got == dense_first_difference(dense, rhs[0][0])
        assert got[:2] == (unflatten(j, legs), unflatten(row, dense.codomain_dims))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_first_of_several_differences_in_one_batch(self, field):
        """Bumps in the batch of columns 255..510: two rows of column 300 and a
        row of each of two later columns; column 300 and its first row are named."""
        legs, steps, dense = late_wiring(field)
        rhs = [(bumped(dense, (7, 300), (2, 300), (0, 301), (1, 509)), None)]
        got = _Wiring(legs, steps).first_difference(rhs)
        assert got == column_scan_first_difference(legs, steps, rhs)
        assert got[:2] == (unflatten(300, legs), (0, 2))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_entries_that_cancel_within_a_column(self, field):
        """The left side ends in steps whose sum is the identity but whose terms
        cancel on every zero entry of a column."""
        legs, steps, dense = late_wiring(field)
        lhs = steps + cancelling(field, dense.codomain_total)
        assert_same(_Wiring(legs, lhs).to_map(), reshape(dense, legs, (dense.codomain_total,)))
        assert _Wiring(legs, lhs).first_difference([(dense, None)]) is None
        for j in (0, 575):
            rhs = [(bumped(dense, (1, j)), None)]
            got = _Wiring(legs, lhs).first_difference(rhs)
            assert got == column_scan_first_difference(legs, lhs, rhs)
            assert got[:2] == (unflatten(j, legs), (1,))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_opposite_columns_do_not_cancel_each_other(self, field):
        """Column 2k + 1 is minus column 2k: in one batch each keeps its own keys."""
        rng = random.Random(f"opposite/{field.describe()}")
        half = random_matrix_map(field, (4,), (3,), rng)
        cols = [c for j in range(4) for c in (half.column(j), tuple(map(field.neg, half.column(j))))]
        f = LinMap(field, (8,), (3,), tuple(zip(*cols)))
        assert_same(_Wiring((8,), [(f, 0)]).to_map(), f)
        assert_same(compose(identity(field, (3,)), f), f)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_products_of_a_non_0_1_algebra_match_the_dense_chain(self, field):
        """Products of ``half_quadratic`` (its constant 1/2 is not 0/1 over Q) on
        nine legs, 512 columns, with the unit inserted between two of them.  The
        last column, 511, is a batch of its own, after the one of 255..510."""
        a = half_quadratic(field)
        unit = _element(field, (2,), a.unit)
        legs = (2,) * 9
        steps = [(a.mult, 7), (a.mult, 0), (unit, 3), (a.mult, 3), (a.mult, 4), (a.mult, 1), (a.mult, 0)]
        got = _Wiring(legs, steps).to_map()
        assert_same(got, dense_chain(legs, steps))
        assert_same(got, column_scan_map(legs, steps))
        for j in (510, 511):
            rhs = [(bumped(got, (1, j)), None)]
            diff = _Wiring(legs, steps).first_difference(rhs)
            assert diff == column_scan_first_difference(legs, steps, rhs)
            assert diff[:2] == (unflatten(j, legs), unflatten(1, got.codomain_dims))
        assert_same(tensor_map(a.mult, got), dense_tensor_map(a.mult, got))
        square = reshape(tensor_map(a.mult, a.mult), (16,), (4,))
        assert_same(compose(square, reshape(got, (512,), (16,))), dense_compose(square, reshape(got, (512,), (16,))))


def c2_cubed_flip(field) -> CrossedData:
    """k[C2^3] (x) k[C2^3] twisted by the flip: phi_mult has 64**2 = 4096 columns."""
    c8 = algebra_from_group(tuple(tuple(i ^ j for j in range(8)) for i in range(8)), 0, field)
    return twisted_tensor_product(TwistingMapData(c8, c8, flip(field, 8, 8)))


def parent_phi_mult(c, result):
    """phi_mult as built before it ran on the product steps: two full product
    maps, compared one column at a time on phi's own legs."""
    phi = result.phi
    lhs = [(phi, 0), (phi, len(phi.codomain_dims)), (crossed_mult(c), None)]
    rhs = [(crossed_mult(result.data_prime), None), (phi, None)]
    return column_scan_first_difference(phi.domain_dims * 2, lhs, rhs)


def phi_cases():
    for field in FIELDS:
        data = flip_t2_c2(field)
        pair = random_twist_pair(data.a, data.v, random.Random(field.describe()))
        yield pytest.param(data, pair, id=f"{field.describe()}-t2c2-random")
        data = c2_cubed_flip(field)
        yield pytest.param(data, trivial_pair(data.a, data.v), id=f"{field.describe()}-c8c8-trivial")


@pytest.mark.parametrize("data, pair", phi_cases())
@pytest.mark.parametrize("flat", [False, True], ids=["shaped", "flat"])
def test_phi_mult_names_the_parent_column(data, pair, flat):
    """phi with one entry bumped in its last column (or a middle one), as shaped
    by apply_twist or relabelled (mn,) -> (mn,): phi_mult on the product steps
    names the same column, row and values as the parent's two product maps."""
    result = apply_twist(data, pair)
    mn = data.a.dim * data.v.dim
    phi = reshape(result.phi, (mn,), (mn,)) if flat else result.phi
    for col in (mn - 1, mn // 2 + 1):
        bad = dataclasses.replace(result, phi=bumped(phi, (col // 2, col)))
        want = parent_phi_mult(data, bad)
        assert want is not None
        check = verify_twist_result(data, bad).check("phi_mult")
        column, row, a, b = want
        assert (check.passed, check.first_counterexample) == (False, column)
        assert check.detail == f"lhs[{row}] = {a}, rhs[{row}] = {b} on basis input {column}"
    assert verify_twist_result(data, dataclasses.replace(result, phi=phi)).check("phi_mult").passed
