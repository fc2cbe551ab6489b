#!/usr/bin/env python3
"""Mutation sweep: poke single entries of R, sigma, and the algebra
multiplication on every builtin instance and show which law catches each.

Usage: python scripts/mutation_sweep.py [--instance NAME]
"""

import argparse

from crosstwist import Algebra, LinMap, builtin_corpus, check_algebra, check_brz_axioms
from crosstwist.crossed import with_r, with_sigma


def bump(f: LinMap, row, col):
    rows = [list(r) for r in f.matrix]
    rows[row][col] = f.field.add(rows[row][col], f.field.one())
    return LinMap(f.field, f.domain_dims, f.codomain_dims, tuple(tuple(r) for r in rows))


def mutations(data):
    m, n = data.a.dim, data.v.dim
    for k in range(m):
        yield f"r[(0,0),(point,a_{k})] += 1", check_brz_axioms(with_r(data, bump(data.r, 0, k)))
    for j in range(1, n):
        yield f"r[(0,0),(v_{j},unit)] += 1", check_brz_axioms(with_r(data, bump(data.r, 0, j * m)))
    for el in range(n):
        yield f"sigma[(0,0),(point,v_{el})] += 1", check_brz_axioms(
            with_sigma(data, bump(data.sigma, 0, el))
        )
    for col in (0, 1, m):
        mult = bump(data.a.mult, 0, col)
        yield f"mult[(0),{col}] += 1", check_algebra(Algebra(m, mult, data.a.unit))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instance", default=None)
    args = parser.parse_args()
    corpus = builtin_corpus()
    names = [inst.name for inst in corpus]
    if args.instance is not None and args.instance not in names:
        parser.error(f"unknown instance {args.instance!r}; known instances: {', '.join(names)}")

    missed = 0
    for inst in corpus:
        if args.instance is not None and inst.name != args.instance:
            continue
        print(f"== {inst.name}")
        for desc, report in mutations(inst.data):
            flagged = [c for c in report.checks if not c.passed]
            if flagged:
                first = flagged[0]
                print(f"  {desc:<36} -> {first.law} at {first.first_counterexample}")
            else:
                print(f"  {desc:<36} -> MISSED")
                missed += 1
    raise SystemExit(1 if missed else 0)


if __name__ == "__main__":
    main()
