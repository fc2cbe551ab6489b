"""Exact relations between outputs of the twist, stated by no law table.

- The inverse pair: phi_gamma is the inverse of phi_theta, so twisting c' by
  (gamma, theta) gives back exactly R and sigma.
- Reduction mod p: the builders are ring maps of their inputs, so over Q with
  p-integral entries, reducing R', sigma', phi and phi^-1 entrywise mod p gives
  the maps built over GF(p); and a law failing over GF(p) fails over Q.
"""

import random
from dataclasses import replace

import pytest

from crosstwist import (
    LinMap,
    PrimeField,
    Rationals,
    TwistPair,
    apply_twist,
    builtin_corpus,
    verify_twist_result,
)
from crosstwist.crossed import with_r, with_sigma
from oracles import random_twist_pair
from test_golden import bump
from test_kernel_differential import flip_t2_c2

FIELDS = {"Q": Rationals(), "GF5": PrimeField(5)}
PRIMES = (3, 5, 7)
TWIST_MAPS = ("r_prime", "sigma_prime", "phi", "phi_inverse")


def paired(field):
    return [inst for inst in builtin_corpus(field) if inst.pair is not None]


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_twisting_back_by_the_swapped_pair_gives_back_r_and_sigma(field_name):
    names = []
    for inst in paired(FIELDS[field_name]):
        prime = apply_twist(inst.data, inst.pair).data_prime
        back = apply_twist(prime, TwistPair(theta=inst.pair.gamma, gamma=inst.pair.theta))
        assert (back.r_prime, back.sigma_prime) == (inst.data.r, inst.data.sigma), inst.name
        names.append(inst.name)
    assert names == ["ttp-flip-c2", "gauge-c2", "ttp-star-c2", "gauge-v4", "smash-v4-twisted"]


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_twisting_back_holds_where_the_twist_moves_r_and_sigma(field_name):
    """T2 (x) kC2 by the flip, A upper triangular, with a seeded random pair: R' != R
    and sigma' != sigma, and the entries are not 0/1."""
    field = FIELDS[field_name]
    c = flip_t2_c2(field)
    pair = random_twist_pair(c.a, c.v, random.Random(field.describe()))
    prime = apply_twist(c, pair).data_prime
    assert prime.r != c.r and prime.sigma != c.sigma
    back = apply_twist(prime, TwistPair(theta=pair.gamma, gamma=pair.theta))
    assert (back.r_prime, back.sigma_prime) == (c.r, c.sigma)


def reduced(f: LinMap, field: PrimeField) -> LinMap:
    """The entrywise reduction mod p of a map over Q."""
    return LinMap(field, f.domain_dims, f.codomain_dims, tuple(tuple(map(field.from_fraction, r)) for r in f.matrix))


@pytest.fixture(scope="module")
def over_q():
    """Each builtin instance that carries a pair, with its twist over Q."""
    return {inst.name: (inst, apply_twist(inst.data, inst.pair)) for inst in paired(Rationals())}


@pytest.mark.parametrize("p", PRIMES)
def test_twist_outputs_over_q_reduce_to_the_ones_over_gf_p(p, over_q):
    field = PrimeField(p)
    insts = paired(field)
    assert [inst.name for inst in insts] == list(over_q)
    for inst in insts:
        got = apply_twist(inst.data, inst.pair)
        for attr in TWIST_MAPS:
            assert reduced(getattr(over_q[inst.name][1], attr), field) == getattr(got, attr), (inst.name, attr)


def bumps(result):
    """(map name, row, column, result) for each single-entry +1 bump of R' and sigma'."""
    for attr, update in (("r_prime", with_r), ("sigma_prime", with_sigma)):
        f = getattr(result, attr)
        for row in range(f.codomain_total):
            for col in range(f.domain_total):
                g = bump(f, row, col)
                yield attr, row, col, replace(result, **{attr: g}, data_prime=update(result.data_prime, g))


@pytest.fixture(scope="module")
def verdicts_over_q(over_q):
    """Whether verify_twist_result passes, for each bump of each twist over Q."""
    return {
        (name, attr, row, col): verify_twist_result(inst.data, bad).passed
        for name, (inst, result) in over_q.items()
        for attr, row, col, bad in bumps(result)
    }


@pytest.mark.parametrize("p", PRIMES)
def test_a_bump_failing_over_gf_p_fails_over_q(p, verdicts_over_q):
    """A +1 bump over Q reduces to the same bump over GF(p), so PASS over Q
    forces PASS over GF(p)."""
    failed = []
    for inst in paired(PrimeField(p)):
        for attr, row, col, bad in bumps(apply_twist(inst.data, inst.pair)):
            if not verify_twist_result(inst.data, bad).passed:
                key = (inst.name, attr, row, col)
                assert not verdicts_over_q[key], key
                failed.append(key)
    assert len(failed) > len(verdicts_over_q) // 2
