"""Tests of the span recorder: self-time arithmetic and wrapper restoring."""

import json
import types
from functools import partial

import pytest

from spans import Recorder, patched


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _namespace(clock):
    ns = types.SimpleNamespace()

    def inner():
        clock.now += 2.0

    def leaf():
        clock.now += 1.0

    def outer():
        clock.now += 1.0
        ns.inner()
        ns.inner()
        ns.leaf()
        clock.now += 3.0

    def broken():
        clock.now += 5.0
        raise RuntimeError("boom")

    ns.inner, ns.leaf, ns.outer, ns.broken = inner, leaf, outer, broken
    return ns


def _wrap_all(rec, ns):
    return [
        (ns, "outer", partial(rec.wrap, "outer")),
        (ns, "inner", partial(rec.wrap, "inner")),
        (ns, "leaf", partial(rec.wrap, "leaf", counted=True)),
        (ns, "broken", partial(rec.wrap, "broken")),
    ]


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    ns = _namespace(clock)
    with patched(_wrap_all(rec, ns)):
        ns.outer()
    outer, inner, leaf = rec.totals["outer"], rec.totals["inner"], rec.totals["leaf"]
    assert (outer.calls, outer.seconds, outer.self_seconds) == (1, 9.0, 4.0)
    assert (inner.calls, inner.seconds, inner.self_seconds) == (2, 4.0, 4.0)
    assert (leaf.calls, leaf.seconds, leaf.self_seconds) == (1, 1.0, 1.0)


def test_spans_name_their_parent_and_counted_calls_store_none():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    ns = _namespace(clock)
    rec.op_id = 7
    with patched(_wrap_all(rec, ns)), rec.span("op"):
        ns.outer()
    by_name = {}
    for index, (name, start, end, parent, op) in enumerate(rec.spans):
        by_name.setdefault(name, []).append((index, start, end, parent, op))
    assert sorted(by_name) == ["inner", "op", "outer"]  # the counted leaf stores no span
    (op_index, _, _, op_parent, _), = by_name["op"]
    (outer_index, start, end, outer_parent, op), = by_name["outer"]
    assert op_parent is None and outer_parent == op_index and op == 7
    assert (start, end) == (0.0, 9.0)
    assert [parent for _, _, _, parent, _ in by_name["inner"]] == [outer_index, outer_index]
    assert rec.totals["op"].self_seconds == 0.0


def test_wrapped_exception_still_closes_its_span():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    ns = _namespace(clock)
    with patched(_wrap_all(rec, ns)), rec.span("op"):
        with pytest.raises(RuntimeError):
            ns.broken()
        ns.inner()
    assert rec.totals["broken"].seconds == 5.0
    assert rec.totals["op"].seconds == 7.0 and rec.totals["op"].self_seconds == 0.0
    assert None not in rec.spans and rec._stack == []


def test_patched_restores_originals_even_on_error():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    ns = _namespace(clock)
    originals = dict(vars(ns))
    observed = []

    def observer(fn):
        def wrapper(*args):
            observed.append(fn.__name__)
            return fn(*args)

        return wrapper

    # an observer beneath a span wrapper on the same attribute, as the traced run does
    with pytest.raises(RuntimeError):
        with patched([(ns, "inner", observer)] + _wrap_all(rec, ns)):
            assert ns.inner is not originals["inner"]
            ns.outer()
            raise RuntimeError("leave early")
    assert vars(ns) == originals
    assert observed == ["inner", "inner"]
    assert rec.totals["inner"].calls == 2


def test_counted_mode_and_dump(tmp_path):
    clock = FakeClock()
    rec = Recorder(clock=clock, store_spans=False)
    ns = _namespace(clock)
    with patched(_wrap_all(rec, ns)):
        ns.outer()
    assert rec.spans == []
    path = tmp_path / "spans.json"
    rec.dump(path)
    payload = json.loads(path.read_text())
    assert payload["totals"]["outer"] == {"calls": 1, "s": 9.0, "self_s": 4.0}
