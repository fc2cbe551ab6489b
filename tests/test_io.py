import copy
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from crosstwist import Algebra, MapBuilder, PrimeField, Rationals, builtin_corpus, check_brz_axioms
from crosstwist.cli import _instance_document
from crosstwist.fields import _text
from crosstwist.io import DocumentError, SpecDocument, parse, report_to_json, serialize

F = Rationals()
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def documents(corpus, field):
    return {inst.name: _instance_document(field, inst) for inst in corpus}


class TestRoundTrip:
    def test_structural_round_trip_on_corpus(self, documents):
        for name, doc in documents.items():
            assert parse(serialize(doc)) == doc, name

    def test_byte_round_trip_on_canonical_documents(self, documents):
        for name, doc in documents.items():
            text = serialize(doc)
            assert serialize(parse(text)) == text, name

    def test_equal_documents_serialize_identically(self, field):
        a = _instance_document(field, builtin_corpus(field)[0])
        b = _instance_document(field, builtin_corpus(field)[0])
        assert serialize(a) == serialize(b)

    def test_ten_thousand_digit_entries_round_trip(self):
        """Entries longer than ``int()`` reads or ``str()`` writes (4300 digits
        by default) are written in full and read back to the same value."""
        big = Fraction(-(10**9999) - 3, 10**9999 + 1)
        mult = MapBuilder(F, (2, 2), (2,))
        for col, row, value in ((0, 0, F.one()), (1, 1, F.one()), (2, 1, F.one()), (3, 0, big)):
            mult.add(row, col, value)
        doc = SpecDocument(field=F, objects={"a": Algebra(2, mult.build(), (F.one(), F.zero()))})
        text = serialize(doc)
        assert f'"{_text(big.numerator)}/{_text(big.denominator)}"' in text
        assert parse(text) == doc and serialize(parse(text)) == text

    def test_prime_field_round_trip(self):
        gf5 = PrimeField(5)
        doc = _instance_document(gf5, builtin_corpus(gf5)[2])
        assert parse(serialize(doc)) == doc

    def test_golden_file_instance_one(self, documents):
        golden = (DATA / "corpus_ttp_flip_c2.json").read_text(encoding="utf-8")
        assert serialize(documents["ttp-flip-c2"]) == golden
        loaded = parse(golden)
        assert check_brz_axioms(loaded.objects["crossed"]).passed


def _mutation_paths(node, prefix=()):
    """Every key of every dict, and the first and last item of every list."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = [(i, node[i]) for i in sorted({0, len(node) - 1}) if node]
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _mutation_paths(value, prefix + (key,))


_DELETE = object()
_MUTATIONS = (_DELETE, None, "x", 1, -1, [], {}, "0")

# sha256 over "<document> <path> <mutation>: <DocumentError text or OK>" lines
# for every structural mutation of the two Q documents that between them hold
# all eight object types; pins every parse-error path and message.
PARSE_ERROR_DIGEST = "907c8ec4bb3f7456d235ea5c696eaf7c84edfc5150e9f9193558ebc7c674690d"


def test_parse_errors_of_structural_mutations_are_pinned(documents):
    lines = []
    for name in ("ttp-flip-c2", "gauge-v4"):
        raw = json.loads(serialize(documents[name]))
        for path in _mutation_paths(raw):
            for value in _MUTATIONS:
                mutated = copy.deepcopy(raw)
                node = mutated
                for key in path[:-1]:
                    node = node[key]
                if value is _DELETE:
                    del node[path[-1]]
                else:
                    node[path[-1]] = value
                try:
                    parse(json.dumps(mutated))
                    outcome = "OK"
                except DocumentError as exc:
                    outcome = str(exc)
                label = "delete" if value is _DELETE else json.dumps(value)
                lines.append(f"{name} {list(path)} {label}: {outcome}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == PARSE_ERROR_DIGEST


def valid_text(documents):
    return serialize(documents["ttp-flip-c2"])


class TestRejections:
    def test_non_canonical_scalar_rejected(self, documents):
        raw = json.loads(valid_text(documents))
        raw["objects"]["star"]["matrix"][0][0] = "2/4"
        with pytest.raises(DocumentError, match=r"matrix\[0\]\[0\].*lowest terms"):
            parse(json.dumps(raw))

    def test_row_length_mismatch_rejected_with_path(self, documents):
        raw = json.loads(valid_text(documents))
        raw["objects"]["star"]["matrix"][1] = raw["objects"]["star"]["matrix"][1][:-1]
        with pytest.raises(DocumentError, match=r"objects\.star\.matrix\[1\]"):
            parse(json.dumps(raw))

    def test_unknown_format_version(self, documents):
        raw = json.loads(valid_text(documents))
        raw["format_version"] = "99"
        with pytest.raises(DocumentError, match="format version"):
            parse(json.dumps(raw))

    def test_malformed_json(self):
        for text in ("{not json", "[" * 100000 + "]" * 100000):
            with pytest.raises(DocumentError, match="not valid JSON"):
                parse(text)

    def test_unknown_object_type(self, documents):
        raw = json.loads(valid_text(documents))
        raw["objects"]["star"]["type"] = "mystery"
        with pytest.raises(DocumentError, match="unknown object type"):
            parse(json.dumps(raw))

    def test_zero_point_rejected(self, documents):
        raw = json.loads(valid_text(documents))
        raw["objects"]["crossed"]["space"]["point"] = ["0/1", "0/1"]
        with pytest.raises(DocumentError, match="nonzero"):
            parse(json.dumps(raw))

    def test_gf_scalar_range_rejected(self):
        gf3 = PrimeField(3)
        doc = _instance_document(gf3, builtin_corpus(gf3)[0])
        raw = json.loads(serialize(doc))
        raw["objects"]["star"]["matrix"][0][0] = "5"
        with pytest.raises(DocumentError, match="non-canonical"):
            parse(json.dumps(raw))

    def test_shape_mismatch_rejected_with_path(self, documents):
        raw = json.loads(valid_text(documents))
        raw["objects"]["crossed"]["r"]["domain_dims"] = [4, 1]
        with pytest.raises(DocumentError, match=r"objects\.crossed"):
            parse(json.dumps(raw))


class TestReportJson:
    def test_report_serialization_is_deterministic(self, corpus):
        rep = check_brz_axioms(corpus[0].data)
        assert report_to_json(rep) == report_to_json(check_brz_axioms(corpus[0].data))
        payload = json.loads(report_to_json(rep))
        assert [c["law_name"] for c in payload["checks"]] == ["brz1", "brz2", "brz3", "brz4", "brz5"]
        assert all(c["passed"] for c in payload["checks"])

    def test_failure_carries_counterexample(self, corpus):
        from crosstwist.crossed import with_r
        from oracles import zero_map

        data = corpus[0].data
        rep = check_brz_axioms(with_r(data, zero_map(F, (2, 2), (2, 2))))
        payload = json.loads(report_to_json(rep))
        brz1 = next(c for c in payload["checks"] if c["law_name"] == "brz1")
        assert brz1["passed"] is False
        assert brz1["first_counterexample"] == [0]
