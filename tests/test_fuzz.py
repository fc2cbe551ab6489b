"""Hypothesis fuzzing of documents against the parse and CLI contracts.

Each example sets one or two scalar entries of an emitted document over Q
or GF(5) (the 2x2 ``ttp-flip-c2`` and ``gauge-c2``, or the 4x2 ``gauge-v4``,
whose associator edits drive ``validate`` through the products in H^(x)3, or
the document a twist emits) to other scalars of its field, and may add one
structural edit: a deletion, or a small JSON value in place of any node.
``parse`` may only return a ``SpecDocument`` or raise ``DocumentError``;
each CLI command may only return 0, 1 or 2, so an exception escaping
``main`` fails the test.  ``twist`` must also agree with ``apply_twist`` on
the parsed objects, and ``corpus`` is fuzzed over its ``--emit`` value and
field spec.
"""

import contextlib
import copy
import functools
import io
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from crosstwist import CrossedData, TwistPair, TwistPreconditionError, apply_twist, check_algebra
from crosstwist import cli
from crosstwist.cli import main
from crosstwist.io import DocumentError, SpecDocument, parse

NAMES = ("ttp-flip-c2", "gauge-c2", "gauge-v4")
FIELDS = {"": "rationals", "gf5/": "gf:5"}
DELETE = "<delete>"
SCALARS = {
    "": st.sampled_from(["0/1", "1/1", "-1/1", "2/1", "1/2"]),
    "gf5/": st.sampled_from(["0", "1", "2", "3", "4"]),
}
STRUCTURAL = st.one_of(
    st.sampled_from([DELETE, None, True, [], {}, "", "x", "0"]),
    st.integers(min_value=-2, max_value=5),
    st.lists(st.sampled_from(["0/1", "1/1", 1, 2]), max_size=3),
)


def _paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


def _is_scalar(path, value):
    """Entries of the objects' vectors and matrices: "n/d" over Q, "k" over GF(p)."""
    return path[0] == "objects" and isinstance(value, str) and ("/" in value or value.isdigit())


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """name -> (raw JSON, all paths, scalar paths, scalar strategy) for the
    emitted documents over each field and for the documents their twists emit."""
    tmp = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for prefix, spec in FIELDS.items():
        for name in NAMES:
            base, twisted = tmp / f"{spec}-{name}.json", tmp / f"{spec}-{name}-twisted.json"
            assert _run(["corpus", "--emit", name, "--field", spec, "--output", str(base)])[0] == 0
            assert _run(["twist", "--input", str(base), "--output", str(twisted)])[0] == 0
            for key, path in ((prefix + name, base), (f"{prefix}{name}-twisted", twisted)):
                raw = json.loads(path.read_text())
                paths = list(_paths(raw))
                scalars = [p for p in paths if _is_scalar(p, _at(raw, p))]
                docs[key] = (raw, paths, scalars, SCALARS[prefix])
    return tmp, docs


@st.composite
def mutated(draw, docs, name, structural_odds):
    """Scalar edits keep the document well-formed, so the laws run; a
    structural edit is added with probability 1/structural_odds."""
    raw, paths, scalars, values = docs[name]
    edits = [(draw(st.sampled_from(scalars)), draw(values)) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.integers(min_value=1, max_value=structural_odds)) == structural_odds:
        edits.append((draw(st.sampled_from(paths)), copy.deepcopy(draw(STRUCTURAL))))
    raw = copy.deepcopy(raw)
    for path, value in edits:
        node = _at(raw, path[:-1])
        if value == DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return raw


_SETTINGS = settings(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(_SETTINGS, max_examples=300)
@given(data=st.data())
def test_parse_returns_document_or_document_error(documents, data):
    _, docs = documents
    raw = data.draw(mutated(docs, data.draw(st.sampled_from(sorted(docs))), structural_odds=1))
    try:
        assert isinstance(parse(json.dumps(raw)), SpecDocument)
    except DocumentError:
        pass


def _twist_exit_code(text):
    """The exit code ``twist`` owes a document, from the library alone."""
    try:
        doc = parse(text)
    except DocumentError:
        return 2
    data, pair = doc.objects.get("crossed"), doc.objects.get("pair")
    if not (isinstance(data, CrossedData) and isinstance(pair, TwistPair)):
        return 2
    m, n = data.a.dim, data.v.dim
    if (pair.theta.domain_dims, pair.theta.codomain_dims) != ((n,), (m, n)):
        return 2
    if not check_algebra(data.a).passed:
        return 1
    try:
        apply_twist(data, pair)
    except TwistPreconditionError:
        return 1
    return 0


@settings(_SETTINGS, max_examples=200)
@given(data=st.data())
def test_cli_exits_with_contract_code(documents, data):
    tmp, docs = documents
    command = data.draw(st.sampled_from(["validate", "build", "twist", "verify-iso"]))
    name = data.draw(st.sampled_from(sorted(FIELDS))) + data.draw(st.sampled_from(NAMES))
    if command == "verify-iso":
        name += "-twisted"
    text = json.dumps(data.draw(mutated(docs, name, structural_odds=4)))
    path = tmp / "mutated.json"
    path.write_text(text)
    code, err = _run([command, "--input", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if command == "twist":
        assert code == _twist_exit_code(text)


# the corpus of a field is the same on every call, so the fuzz builds it once per field
_corpus_once = functools.lru_cache(cli.builtin_corpus)
CORPUS_NAMES = ("ttp-flip-c2", "smash-sign-c2", "gauge-c2", "ttp-star-c2", "gauge-v4", "smash-v4-twisted")
EMITS = st.one_of(
    st.none(),
    st.sampled_from(CORPUS_NAMES),
    st.integers(min_value=-1, max_value=8).map(str),
    st.text(max_size=12),
)


@settings(_SETTINGS, max_examples=100)
@given(spec=st.sampled_from(["rationals", "gf:2", "gf:3", "gf:5"]), emit=EMITS, to_file=st.booleans())
def test_corpus_command_exits_with_contract_code(documents, spec, emit, to_file):
    tmp, _ = documents
    path = tmp / "emitted.json"
    path.unlink(missing_ok=True)
    argv = ["corpus", "--field", spec] + ([f"--emit={emit}"] if emit is not None else [])
    argv += ["--output", str(path)] if to_file else []
    with mock.patch.object(cli, "builtin_corpus", _corpus_once):
        code, err = _run(argv)
    valid = emit is None or emit in CORPUS_NAMES or emit in {str(i) for i in range(1, 7)}
    assert code == (0 if spec != "gf:2" and valid else 2)
    assert "Traceback" not in err
    if code == 0 and emit is not None and to_file:
        assert isinstance(parse(path.read_text()), SpecDocument)
