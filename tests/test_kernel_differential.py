"""The sparse product kernels against their dense forms in ``oracles``.

Each example draws maps (or algebra elements) of random factor shapes,
including 1-dimensional factors, at a sparsity from all-zero to all-nonzero,
with some whole rows and columns forced to zero.  The kernels must agree
with the dense oracles entry for entry, keep the factor dims, and hold only
canonical scalars, so the maps they build without revalidation would pass
``LinMap.__post_init__`` unchanged.
"""

from fractions import Fraction
from math import prod

from hypothesis import given, settings, strategies as st

from crosstwist import Algebra, LinMap, PrimeField, Rationals, compose, tensor_map, tensor_elem_product
from oracles import dense_compose, dense_tensor_elem_product, dense_tensor_map

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
    domain_dims = tuple(domain_dims or draw(factor_dims))
    codomain_dims = tuple(codomain_dims or draw(factor_dims))
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
def power_products(draw):
    field = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3 if m < 3 else 2))
    mult = draw(linmaps(field, (m, m), (m,)))
    algebra = Algebra(m, mult, tuple(draw(scalars(field, m))))
    u, v = draw(scalars(field, m**k)), draw(scalars(field, m**k))
    return algebra, k, u, v


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
    assert all(is_canonical(algebra.field, x) for x in new)
