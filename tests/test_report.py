"""The memo of passing certificates (``report._certify_once``).

Each certifier remembers a passing report per object, by identity: a second
call on the same object returns the identical report without re-running the
check, a failing object is re-checked on every call, a deep copy is
certified afresh, and an entry drops once its object is collected.  The
counts are taken on a fresh memo over the undecorated body of each real
certifier.
"""

import copy
import gc
from collections import Counter

import pytest

from crosstwist import TwistingMapData, check_algebra, check_brz_axioms, check_twisting_map
from crosstwist.crossed import with_r
from crosstwist.report import _PASSED, _certify_once
from oracles import zero_map


def counted(certifier):
    """A fresh memo over the undecorated body of ``certifier``, and the Counter
    of the body's calls."""
    calls = Counter()

    def body(x):
        calls["body"] += 1
        return certifier.__wrapped__(x)

    return _certify_once(body), body, calls


def entries_of(body) -> int:
    return sum(1 for check, _ in _PASSED if check is body)


@pytest.fixture()
def passing(by_name):
    """(certifier, a fresh object it passes) for each memoised certifier."""
    inst = by_name["ttp-flip-c2"]
    twisting = TwistingMapData(inst.data.a, inst.twisting.b, inst.twisting.r)
    return [
        (check_algebra, copy.deepcopy(inst.data.a)),
        (check_twisting_map, twisting),
        (check_brz_axioms, copy.deepcopy(inst.data)),
    ]


@pytest.fixture()
def failing(by_name, non_associative):
    """(certifier, an object it fails) for each memoised certifier."""
    inst = by_name["ttp-flip-c2"]
    data, _ = non_associative
    twisting = TwistingMapData(inst.data.a, inst.twisting.b, zero_map(data.field, (2, 2), (2, 2)))
    return [
        (check_algebra, data.a),
        (check_twisting_map, twisting),
        (check_brz_axioms, with_r(inst.data, zero_map(data.field, (2, 2), (2, 2)))),
    ]


def test_the_certifiers_are_memoised(passing):
    for certifier, obj in passing:
        first = certifier(obj)
        assert first.passed and certifier(obj) is first, certifier.__name__


def test_a_second_call_on_the_same_object_is_a_hit(passing):
    for certifier, obj in passing:
        memo, _, calls = counted(certifier)
        first = memo(obj)
        assert first.passed
        assert memo(obj) is first and memo(obj) is first
        assert calls["body"] == 1, certifier.__name__


def test_a_failing_object_is_rechecked_on_every_call(failing):
    for certifier, obj in failing:
        memo, body, calls = counted(certifier)
        reports = [memo(obj) for _ in range(3)]
        assert not reports[0].passed
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert calls["body"] == 3 and entries_of(body) == 0, certifier.__name__
        assert certifier(obj) is not certifier(obj)


def test_a_deep_copy_is_certified_afresh(passing):
    for certifier, obj in passing:
        memo, _, calls = counted(certifier)
        first = memo(obj)
        twin = copy.deepcopy(obj)
        again = memo(twin)
        assert calls["body"] == 2 and again == first and again is not first, certifier.__name__
        assert memo(twin) is again and calls["body"] == 2
        assert certifier(twin) is not certifier(obj)


def test_the_side_table_empties_when_the_objects_are_collected(passing):
    bodies, keys = [], []
    for certifier, obj in passing:
        memo, body, _ = counted(certifier)
        memo(obj)
        certifier(obj)
        bodies.append(body)
        keys.append((certifier.__wrapped__, id(obj)))
        assert entries_of(body) == 1 and keys[-1] in _PASSED
    del passing[:], certifier, obj
    gc.collect()
    assert all(entries_of(body) == 0 for body in bodies)
    assert not any(key in _PASSED for key in keys)
