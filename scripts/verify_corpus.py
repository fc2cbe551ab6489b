#!/usr/bin/env python3
"""Run the full verification pipeline over every builtin instance and print a table.

Usage: python scripts/verify_corpus.py [--field rationals|gf:P]
"""

import argparse
import time

from crosstwist import (
    TheoremViolationError,
    TwistPreconditionError,
    apply_twist,
    builtin_corpus,
    check_brz_axioms,
    drinfeld_twist,
    maps_equal,
    module_algebra_twist,
    smash_product_data,
    specialize_ttp,
)
from crosstwist.fields import FieldError, parse_field_spec


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--field", default="rationals")
    args = parser.parse_args()
    try:
        field = parse_field_spec(args.field)
        corpus = builtin_corpus(field)
    except FieldError as exc:  # also a characteristic dividing a denominator of the corpus
        parser.error(str(exc))

    print(f"field: {field.describe()}")
    header = f"{'instance':<18} {'dims':<6} {'brz':<5} {'twist':<7} {'gauge':<8} {'star':<7} time"
    print(header)
    print("-" * len(header))
    failures = 0
    for inst in corpus:
        start = time.monotonic()
        dims = f"{inst.data.a.dim}x{inst.data.v.dim}"
        brz = "ok" if check_brz_axioms(inst.data).passed else "FAIL"

        twist = "-"
        gauge_agree = "-"
        if inst.pair is not None:
            # apply_twist certifies the hypotheses and the conclusion, or raises
            try:
                result = apply_twist(inst.data, inst.pair)
            except (TwistPreconditionError, TheoremViolationError):
                twist = "FAIL"
            else:
                twist = "ok"
                if inst.gauge is not None and inst.quasi is not None:
                    direct = smash_product_data(
                        drinfeld_twist(inst.quasi, inst.gauge),
                        module_algebra_twist(inst.quasi, inst.module_algebra, inst.gauge),
                    )
                    agrees = maps_equal(result.data_prime.r, direct.r) and maps_equal(
                        result.data_prime.sigma, direct.sigma
                    )
                    gauge_agree = "ok" if agrees else "FAIL"

        star_ok = "-"
        if inst.twisting is not None and inst.star is not None and inst.pair is not None:
            star_ok = "ok" if specialize_ttp(inst.twisting, inst.star, inst.pair).passed else "FAIL"

        elapsed = time.monotonic() - start
        row = f"{inst.name:<18} {dims:<6} {brz:<5} {twist:<7} {gauge_agree:<8} {star_ok:<7} {elapsed:.2f}s"
        print(row)
        if "FAIL" in row:
            failures += 1
    raise SystemExit(1 if failures else 0)


if __name__ == "__main__":
    main()
