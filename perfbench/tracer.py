"""In-memory span tracer that wraps the public functions of every crosstwist module.

``Tracer.install`` replaces each public function of the traced modules in
every loaded module namespace that binds it (the defining module, the
``crosstwist`` package, sibling modules that imported it, and the
benchmark's own modules), plus ``LinMap.__post_init__`` (span
``linmap.LinMap``, so revalidation is split from arithmetic), the field
methods ``mul``/``add``/``check`` (counted, no span) and
``LawCheck.__post_init__`` (a law event).  ``Tracer.restore`` puts every
original back.  Nothing under ``src/`` is modified.

Wrappers record only while ``active`` is true, so output checks that run
between jobs are not traced.  Spans are kept in memory as
``(id, parent, job, name, start_ns, end_ns)`` and written out once by
``write_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

from crosstwist.report import LAW_NAMES

MODULES = ("fields", "linmap", "algebra", "report", "crossed", "twist", "corpus", "io", "cli")
LAW_FROM_MAPS = "report.law_from_maps"
_MARK = "__perfbench_original__"


class _Frame:
    __slots__ = ("sid", "name", "last_law")

    def __init__(self, sid: int, name: str, now: int):
        self.sid = sid
        self.name = name
        self.last_law = now


class Tracer:
    def __init__(self):
        self.active = False
        self.job = None
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.law_ns: dict[str, int] = defaultdict(int)
        self.law_events: list[tuple[int, str, int]] = []  # (enclosing span id, law, ns)
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> _Frame:
        now = time.perf_counter_ns()
        parent = self._stack[-1].sid if self._stack else None
        frame = _Frame(len(self.spans), name, now)
        self.spans.append([frame.sid, parent, self.job, name, now, None])
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        self.spans[frame.sid][5] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, job=None):
        """A benchmark-level span; a job is a root span that sets the job id."""
        if job is not None:
            self.job = job
        frame = self._open(name)
        try:
            yield frame
        finally:
            self._close(frame)

    def _law(self, law: str) -> None:
        now = time.perf_counter_ns()
        enclosing = next(f for f in reversed(self._stack) if f.name != LAW_FROM_MAPS)
        elapsed = now - enclosing.last_law
        self.law_ns[law] += elapsed
        self.law_events.append((enclosing.sid, law, elapsed))
        for frame in self._stack:
            frame.last_law = now

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.active:
                counts[name] += 1
            return fn(*args)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _law_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(check):
            fn(check)
            if tracer.active:
                tracer._law(check.law)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {short: importlib.import_module(f"crosstwist.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                after = _AFTER.get(f"{short}.{attr}")
                wrappers[id(fn)] = (fn, self._span_wrapper(f"{short}.{attr}", fn, after))
        for namespace in list(sys.modules.values()):
            ns = getattr(namespace, "__dict__", None)
            if ns is None:
                continue
            for attr, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(namespace, attr, hit[1])

        linmap = mods["linmap"].LinMap
        self._patch(
            linmap,
            "__post_init__",
            self._span_wrapper("linmap.LinMap", linmap.__post_init__, _after_linmap),
        )
        law_check = mods["report"].LawCheck
        self._patch(law_check, "__post_init__", self._law_wrapper(law_check.__post_init__))
        for cls in (mods["fields"].Rationals, mods["fields"].PrimeField):
            for name in FIELD_COUNTS:
                op = name.split(".")[1]
                self._patch(cls, op, self._count_wrapper(name, getattr(cls, op)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of each span in ns: its duration minus its children's durations."""
        out = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                out[s[1]] -= s[5] - s[4]
        return out

    def layer_totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """(calls, self ns) per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, int] = defaultdict(int)
        for s, own in zip(self.spans, self.self_times()):
            calls[s[3]] += 1
            self_ns[s[3]] += own
        return calls, self_ns

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, job, name, start, end in self.spans:
                layer, _, func = name.partition(".")
                out.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "job": job, "layer": layer,
                         "name": func, "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )


def _entries(f) -> int:
    return len(f.matrix) * (len(f.matrix[0]) if f.matrix else 0)


def _after_linmap(counts, args, result) -> None:
    f = args[0]
    counts["linmap.LinMap.entries"] += _entries(f)
    counts["linmap.LinMap.nonzero"] += sum(len(row) - row.count(0) for row in f.matrix)


def _after_entries_out(key):
    def after(counts, args, result):
        counts[key] += _entries(result)

    return after


def _after_parse(counts, args, result) -> None:
    counts["io.parse.bytes"] += len(args[0].encode("utf-8"))


def _after_serialize(counts, args, result) -> None:
    counts["io.serialize.bytes"] += len(result.encode("utf-8"))


_AFTER = {
    "linmap.tensor_map": _after_entries_out("linmap.tensor_map.entries_out"),
    "linmap.compose": _after_entries_out("linmap.compose.entries_out"),
    "io.parse": _after_parse,
    "io.serialize": _after_serialize,
}


# -- the per-layer metrics a traced run reports -------------------------------

SPAN_METRICS = {
    "linmap": ("LinMap", "tensor_map", "compose", "first_difference", "apply"),
    "algebra": ("check_algebra", "mu2", "tensor_algebra", "tensor_elem_product"),
    "report": ("law_from_maps",),
    "crossed": (
        "check_twisting_map", "twisted_tensor_product", "check_brz_axioms", "crossed_mult",
        "build_crossed_product",
    ),
    "twist": (
        "check_twist_conditions", "make_r_prime", "make_sigma_prime", "phi_map",
        "verify_twist_result", "apply_twist", "specialize_ttp",
    ),
    "corpus": (
        "builtin_corpus", "quasi_bialgebra_violations", "pentagon_violations", "gauge_violations",
        "module_algebra_violations", "smash_product_data", "drinfeld_twist", "module_algebra_twist",
        "gauge_twist_pair",
    ),
    "io": ("parse", "serialize", "report_to_json"),
}
CLI_COMMANDS = ("cmd_validate", "cmd_build", "cmd_twist", "cmd_verify_iso", "cmd_corpus")
COUNTERS = (
    ("linmap.tensor_map.entries_out", "count"),
    ("linmap.compose.entries_out", "count"),
    ("linmap.LinMap.entries", "count"),
    ("io.parse.bytes", "bytes"),
    ("io.serialize.bytes", "bytes"),
)
FIELD_COUNTS = tuple(f"fields.{op}.calls" for op in ("mul", "add", "check"))


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(name, "count", "lower") for name in FIELD_COUNTS]
    for layer, names in SPAN_METRICS.items():
        for name in names:
            out.append((f"{layer}.{name}.calls", "count", "lower"))
            out.append((f"{layer}.{name}.self_s", "s", "lower"))
    out.extend((name, unit, "lower") for name, unit in COUNTERS)
    out.append(("linmap.LinMap.nonzero_share", "share", "higher"))
    out.extend((f"cli.{name}.self_s", "s", "lower") for name in CLI_COMMANDS)
    out.extend((f"law.{law}.s", "s", "lower") for law in sorted(LAW_NAMES))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


def per_layer_values(tracer: Tracer, overhead_s: float) -> dict[str, tuple[float, str]]:
    calls, self_ns = tracer.layer_totals()
    counts = tracer.counts
    counted = set(FIELD_COUNTS) | {name for name, _ in COUNTERS}
    out = {}
    for name, unit, _ in per_layer_metrics():
        head, _, kind = name.rpartition(".")
        if name == "trace.overhead_s":
            value = overhead_s
        elif name == "linmap.LinMap.nonzero_share":
            entries = counts["linmap.LinMap.entries"]
            value = counts["linmap.LinMap.nonzero"] / entries if entries else 0.0
        elif head.startswith("law."):
            value = tracer.law_ns[head[4:]] / 1e9
        elif name in counted:
            value = counts[name]
        elif kind == "calls":
            value = calls[head]
        else:
            value = self_ns[head] / 1e9
        out[name] = (value, unit)
    return out
