"""Hypothesis fuzzing of documents against the parse and CLI contracts.

Each example sets one or two scalar entries of an emitted 2x2 document (or
of the document its twist emits) to other scalars, and may add one
structural edit: a deletion, or a small JSON value in place of any node.
``parse`` may only return a ``SpecDocument`` or raise ``DocumentError``; each
CLI command may only return 0, 1 or 2, so an exception escaping ``main``
fails the test.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from crosstwist.cli import main
from crosstwist.io import DocumentError, SpecDocument, parse

NAMES = ("ttp-flip-c2", "gauge-c2")
DELETE = "<delete>"
SCALARS = st.sampled_from(["0/1", "1/1", "-1/1", "2/1", "1/2"])
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


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """name -> (raw JSON, all paths, scalar paths) for the emitted documents
    and for the documents their twists emit."""
    tmp = tmp_path_factory.mktemp("fuzz")
    docs = {}
    for name in NAMES:
        base, twisted = tmp / f"{name}.json", tmp / f"{name}-twisted.json"
        assert _run(["corpus", "--emit", name, "--output", str(base)])[0] == 0
        assert _run(["twist", "--input", str(base), "--output", str(twisted)])[0] == 0
        for key, path in ((name, base), (f"{name}-twisted", twisted)):
            raw = json.loads(path.read_text())
            paths = list(_paths(raw))
            scalars = [p for p in paths if isinstance(_at(raw, p), str) and "/" in _at(raw, p)]
            docs[key] = (raw, paths, scalars)
    return tmp, docs


@st.composite
def mutated(draw, docs, name, structural_odds):
    """Scalar edits keep the document well-formed, so the laws run; a
    structural edit is added with probability 1/structural_odds."""
    raw, paths, scalars = docs[name]
    edits = [(draw(st.sampled_from(scalars)), draw(SCALARS)) for _ in range(draw(st.integers(1, 2)))]
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


@settings(_SETTINGS, max_examples=200)
@given(data=st.data())
def test_cli_exits_with_contract_code(documents, data):
    tmp, docs = documents
    command = data.draw(st.sampled_from(["validate", "build", "twist", "verify-iso"]))
    name = data.draw(st.sampled_from(NAMES))
    if command == "verify-iso":
        name += "-twisted"
    path = tmp / "mutated.json"
    path.write_text(json.dumps(data.draw(mutated(docs, name, structural_odds=4))))
    code, err = _run([command, "--input", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
