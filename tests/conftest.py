import sys
from collections import Counter

import pytest

from crosstwist import (
    Algebra,
    CrossedData,
    MapBuilder,
    PointedSpace,
    Rationals,
    basis_vector,
    builtin_corpus,
    identity,
    opposite_unit_insertion,
    reshape,
    trivial_pair,
)


@pytest.fixture(scope="session")
def field():
    return Rationals()


@pytest.fixture(scope="session")
def corpus(field):
    return builtin_corpus(field)


@pytest.fixture(scope="session")
def by_name(corpus):
    return {inst.name: inst for inst in corpus}


@pytest.fixture()
def count_calls(monkeypatch):
    """``count_calls(source, names)`` counts the calls of each named function
    of module ``source`` through every crosstwist module that binds it, and
    returns the Counter it fills."""

    def install(source, names):
        counts = Counter()
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "crosstwist"]
        for name in names:
            original = getattr(source, name)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    return install


@pytest.fixture(scope="session")
def non_associative(field):
    """Crossed data and trivial pair over a unital, non-associative A.

    A has basis e0 = 1, e1, e2 with e1 e1 = e2, e2 e1 = e1 and every other
    non-unit product 0, so (e1 e1) e1 = e1 but e1 (e1 e1) = 0.  With V = k,
    R = id and sigma(1, 1) = 1_A, all of brz1..brz5 hold.
    """
    products = {(1, 1): 2, (2, 1): 1}
    mult = MapBuilder(field, (3, 3), (3,))
    for i in range(3):
        for j in range(3):
            k = j if i == 0 else i if j == 0 else products.get((i, j))
            if k is not None:
                mult.add(k, 3 * i + j, field.one())
    a = Algebra(3, mult.build(), basis_vector(field, 3, 0))
    v = PointedSpace(1, (field.one(),))
    r = reshape(identity(field, (3,)), (1, 3), (3, 1))
    sigma = reshape(opposite_unit_insertion(a, v), (1, 1), (3, 1))
    return CrossedData(a=a, v=v, r=r, sigma=sigma), trivial_pair(a, v)
