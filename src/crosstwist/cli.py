"""Command-line driver: validate, build, twist, verify-iso, corpus.

Exit codes: 0 all checks passed, 1 checks ran and at least one failed,
2 input error (bad file, unknown object, malformed flags).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .algebra import Algebra, check_algebra
from .corpus import (
    GaugeTransformation,
    QuasiBialgebra,
    RightModuleAlgebra,
    builtin_corpus,
    gauge_violations,
    module_algebra_violations,
    pentagon_violations,
    quasi_bialgebra_violations,
)
from .crossed import CrossedData, InvalidDataError, build_crossed_product, check_brz_axioms
from .fields import CharacteristicError, Field, FieldError, Rationals, parse_field_spec
from .io import OBJECT_TAGS, DocumentError, SpecDocument, parse, report_checks, serialize
from .linmap import LinMap
from .report import AxiomReport, format_check, merge
from .twist import (
    TheoremViolationError,
    TwistPair,
    TwistPreconditionError,
    TwistResult,
    apply_twist,
    verify_twist_result,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2


def _parse_field_flag(text: str) -> Field:
    try:
        return parse_field_spec(text)
    except FieldError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _load_document(args) -> SpecDocument:
    if not args.input:
        raise DocumentError("$", "missing --input")
    text = Path(args.input).read_text(encoding="utf-8")
    doc = parse(text)
    if args.field is not None and doc.field != args.field:
        raise DocumentError(
            "$.field",
            f"document field {doc.field.describe()} does not match requested "
            f"{args.field.describe()}",
        )
    return doc


def _emit(args, doc: SpecDocument) -> None:
    text = serialize(doc)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _print_report(args, results: list[dict]) -> None:
    if args.report == "json":
        sys.stdout.write(json.dumps({"results": results}, sort_keys=True, indent=2) + "\n")
        return
    for res in results:
        sys.stdout.write(f"== {res['object']} ({res['kind']})\n")
        for line in res.get("lines", []):
            sys.stdout.write(line + "\n")


def _report_result(name: str, kind: str, report: AxiomReport) -> dict:
    return {
        "object": name,
        "kind": kind,
        "passed": report.passed,
        "checks": report_checks(report),
        "lines": [format_check(c) for c in report.checks],
    }


def _violations_result(name: str, kind: str, violations: list[str], note: str = "") -> dict:
    lines = [f"[FAIL] {v}" for v in violations]
    if not violations:
        lines = [f"[PASS] {note}" if note else "[PASS] all laws hold"]
    return {
        "object": name,
        "kind": kind,
        "passed": not violations,
        "violations": violations,
        "lines": lines,
    }


def _find_quasi(doc: SpecDocument, name: str, what: str) -> QuasiBialgebra:
    if isinstance(doc.objects.get("quasi"), QuasiBialgebra):
        return doc.objects["quasi"]
    candidates = [o for o in doc.objects.values() if isinstance(o, QuasiBialgebra)]
    if len(candidates) != 1:
        raise DocumentError(
            f"$.objects.{name}", f"{what} validation needs a quasi_bialgebra object"
        )
    return candidates[0]


def _validate_one(doc: SpecDocument, name: str) -> dict:
    obj = doc.objects[name]
    kind = OBJECT_TAGS[type(obj)]
    if isinstance(obj, Algebra):
        return _report_result(name, kind, check_algebra(obj))
    if isinstance(obj, CrossedData):
        return _report_result(
            name, kind, merge(check_algebra(obj.a).checks, check_brz_axioms(obj).checks)
        )
    if isinstance(obj, QuasiBialgebra):
        violations = quasi_bialgebra_violations(obj) + pentagon_violations(obj)
        return _violations_result(name, kind, violations)
    if isinstance(obj, GaugeTransformation):
        quasi = _find_quasi(doc, name, "gauge")
        return _violations_result(name, kind, gauge_violations(quasi, obj))
    if isinstance(obj, RightModuleAlgebra):
        quasi = _find_quasi(doc, name, "module-algebra")
        return _violations_result(name, kind, module_algebra_violations(quasi, obj))
    return _violations_result(name, kind, [], note="shape invariants hold (checked at parse)")


def cmd_validate(args) -> int:
    doc = _load_document(args)
    if args.object is not None:
        if args.object not in doc.objects:
            raise DocumentError(f"$.objects.{args.object}", "no such object")
        names = [args.object]
    else:
        names = sorted(doc.objects)
    results = [_validate_one(doc, name) for name in names]
    _print_report(args, results)
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_FAILED


def cmd_build(args) -> int:
    doc = _load_document(args)
    name = args.object or "crossed"
    obj = doc.objects.get(name)
    if not isinstance(obj, CrossedData):
        raise DocumentError(f"$.objects.{name}", "expected a crossed_data object")
    try:
        product = build_crossed_product(obj)
    except InvalidDataError as exc:
        sys.stdout.write(f"[FAIL] {exc}\n")
        return EXIT_FAILED
    report = check_algebra(product)
    _print_report(args, [_report_result(name, "built_product", report)])
    if args.output:
        _emit(args, SpecDocument(field=doc.field, objects={f"{name}_product": product}))
    return EXIT_OK if report.passed else EXIT_FAILED


def _algebra_fails(args, name: str, a: Algebra) -> bool:
    """Print A's report if A fails its laws; the crossed product needs them."""
    report = check_algebra(a)
    if not report.passed:
        _print_report(args, [_report_result(name, "algebra", report)])
    return not report.passed


def cmd_twist(args) -> int:
    doc = _load_document(args)
    name = args.object or "crossed"
    data = doc.objects.get(name)
    if not isinstance(data, CrossedData):
        raise DocumentError(f"$.objects.{name}", "expected a crossed_data object")
    pair = doc.objects.get(args.pair)
    if not isinstance(pair, TwistPair):
        raise DocumentError(f"$.objects.{args.pair}", "expected a twist_pair object")
    m, n = data.a.dim, data.v.dim
    if (pair.theta.domain_dims, pair.theta.codomain_dims) != ((n,), (m, n)):
        raise DocumentError(f"$.objects.{args.pair}", f"expected a map ({n},) -> ({m}, {n})")
    if _algebra_fails(args, name, data.a):
        return EXIT_FAILED
    try:
        result = apply_twist(data, pair)
    except TwistPreconditionError as exc:
        _print_report(args, [_report_result(name, "twist_hypotheses", exc.report)])
        return EXIT_FAILED
    except TheoremViolationError as exc:
        sys.stdout.write(f"[FAIL] {exc}\n")
        return EXIT_FAILED
    _print_report(args, [_report_result(name, "twist_result", result.conclusion)])
    if args.output:
        _emit(
            args,
            SpecDocument(
                field=doc.field,
                objects={
                    "crossed": data,
                    "crossed_prime": result.data_prime,
                    "r_prime": result.r_prime,
                    "sigma_prime": result.sigma_prime,
                    "phi": result.phi,
                    "phi_inverse": result.phi_inverse,
                },
            ),
        )
    return EXIT_OK


def cmd_verify_iso(args) -> int:
    doc = _load_document(args)
    required = {"crossed": CrossedData, "crossed_prime": CrossedData, "phi": LinMap, "phi_inverse": LinMap}
    values = {}
    for key, kind in required.items():
        obj = doc.objects.get(key)
        if not isinstance(obj, kind):
            raise DocumentError(f"$.objects.{key}", f"expected a {kind.__name__} object")
        values[key] = obj
    crossed, prime = values["crossed"], values["crossed_prime"]
    m, n = crossed.a.dim, crossed.v.dim
    if (prime.a.dim, prime.v.dim) != (m, n):
        raise DocumentError(
            "$.objects.crossed_prime",
            f"dims ({prime.a.dim}, {prime.v.dim}) do not match crossed ({m}, {n})",
        )
    for key in ("phi", "phi_inverse"):
        if (values[key].domain_total, values[key].codomain_total) != (m * n, m * n):
            raise DocumentError(f"$.objects.{key}", f"expected an endomorphism of ({m}, {n})")
    if any(_algebra_fails(args, key, values[key].a) for key in ("crossed", "crossed_prime")):
        return EXIT_FAILED
    result = TwistResult(
        r_prime=prime.r,
        sigma_prime=prime.sigma,
        data_prime=prime,
        phi=values["phi"],
        phi_inverse=values["phi_inverse"],
    )
    report = verify_twist_result(crossed, result)
    _print_report(args, [_report_result("crossed_prime", "stored_twist", report)])
    return EXIT_OK if report.passed else EXIT_FAILED


def _instance_document(field: Field, instance) -> SpecDocument:
    objects = {
        "crossed": instance.data,
        "pair": instance.pair,
        "algebra_b": instance.twisting.b if instance.twisting is not None else None,
        "star": instance.star,
        "quasi": instance.quasi,
        "module_algebra": instance.module_algebra,
        "gauge": instance.gauge,
    }
    return SpecDocument(field=field, objects={k: v for k, v in objects.items() if v is not None})


def cmd_corpus(args) -> int:
    field = args.field if args.field is not None else Rationals()
    try:
        instances = builtin_corpus(field)
    except CharacteristicError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    if args.emit is None:
        for idx, inst in enumerate(instances, start=1):
            tags = ",".join(inst.tags)
            sys.stdout.write(f"{idx}  {inst.name}  [{tags}]  {inst.description}\n")
        return EXIT_OK
    selected = None
    for idx, inst in enumerate(instances, start=1):
        if args.emit == str(idx) or args.emit == inst.name:
            selected = inst
            break
    if selected is None:
        sys.stderr.write(f"error: no corpus instance {args.emit!r}\n")
        return EXIT_INPUT
    _emit(args, _instance_document(field, selected))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosstwist",
        description="Validate, build, and twist crossed products of algebras with exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "input": dict(help="path to a document"),
        "object": dict(help="name of the object to act on"),
        "output": dict(help="write the resulting document to this path"),
        "report": dict(choices=["json", "text"], default="text"),
        "field": dict(type=_parse_field_flag, help="rationals or gf:<p>; must match the document's field"),
        "pair": dict(default="pair", help="name of the twist_pair object"),
        "emit": dict(help="1-based index or name of the instance to emit"),
    }
    # each command takes exactly the flags it reads, and every one reads --field
    commands = (
        ("validate", cmd_validate, "run the axiom checks for stored objects", "input object report"),
        ("build", cmd_build, "build the crossed-product algebra from stored data", "input object output report"),
        ("twist", cmd_twist, "apply a twist pair and certify the isomorphism", "input object output report pair"),
        ("verify-iso", cmd_verify_iso, "re-check a stored twist result", "input report"),
        ("corpus", cmd_corpus, "list or emit the builtin instances", "output emit"),
    )
    for name, func, help_text, names in commands:
        p = sub.add_parser(name, help=help_text)
        for flag in names.split() + ["field"]:
            p.add_argument(f"--{flag}", **flags[flag])
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
