"""Span recording, self time, and the cross-thread and cross-process merge."""

import multiprocessing as mp
import threading

import pytest

from perfbench.trace import Span, Tracer, layer_table, load_child_records, merge, self_time


def _span(t0, t1, name="x", pid=1, tid=1):
    return Span(pid=pid, tid=tid, sid=0, name=name, t0=t0, t1=t1, value=0.0)


def _adopt(parent, *children):
    for child in children:
        child.parent = parent
        parent.children.append(child)


def test_self_time_without_children_is_the_duration():
    assert self_time(_span(1.0, 3.5)) == pytest.approx(2.5)


def test_self_time_subtracts_nested_children():
    root = _span(0.0, 10.0)
    _adopt(root, _span(1.0, 3.0), _span(5.0, 6.0))
    assert self_time(root) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    # Two workers busy at once under one dispatch span.
    root = _span(0.0, 10.0)
    _adopt(root, _span(1.0, 6.0, pid=2), _span(2.0, 4.0, pid=3), _span(5.0, 8.0, pid=3))
    assert self_time(root) == pytest.approx(3.0)


def test_self_time_clips_children_to_the_span():
    root = _span(2.0, 6.0)
    _adopt(root, _span(1.0, 3.0), _span(5.0, 9.0))
    assert self_time(root) == pytest.approx(2.0)


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


class _Child(_Layer):
    pass


def test_wrap_records_caller_links_and_restores():
    tracer = Tracer()
    original_outer = _Layer.outer
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(_Layer, "inner", "layer.inner", value=lambda args, result: args[1])
    tracer.wrap(_Child, "inner", "child.inner")
    assert _Layer().outer(3) == 7
    assert _Child().inner(2) == 4
    tracer.unwrap_all()
    assert _Layer.outer is original_outer
    assert "inner" not in _Child.__dict__

    spans = merge(tracer.pid, {tracer.pid: tracer.records})
    outer = next(s for s in spans if s.name == "layer.outer")
    (called,) = [s for s in spans if s.name == "layer.inner" and s.parent is outer]
    assert called.value == 3.0
    table = layer_table(spans)
    assert table["layer.outer"].calls == 1
    assert table["layer.inner"].calls == 2  # once from outer, once below child.inner
    assert table["child.inner"].calls == 1


def test_layer_table_counts_recursive_busy_time_once():
    outer = _span(0.0, 4.0, name="a")
    inner = _span(1.0, 2.0, name="a")
    _adopt(outer, inner)
    stats = layer_table([outer, inner])["a"]
    assert stats.calls == 2
    assert stats.busy_s == pytest.approx(4.0)
    assert stats.self_s == pytest.approx(4.0)


def test_span_on_another_thread_attaches_to_the_enclosing_span():
    tracer = Tracer()
    tracer.wrap(_Layer, "inner", "layer.inner")
    try:
        with tracer.span("client"):
            worker = threading.Thread(target=_Layer().inner, args=(1,))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        tracer.unwrap_all()
    spans = {s.name: s for s in merge(tracer.pid, {tracer.pid: tracer.records})}
    assert spans["layer.inner"].parent is spans["client"]


def _record(name, t0, t1, sid, parent=0, tid=7):
    return (tid, sid, parent, name, t0, t1, 0.0)


def test_cross_process_merge():
    front = [
        _record("http", 0.0, 10.0, 1),
        _record("dispatch", 1.0, 9.0, 2, tid=8),
        _record("http", 20.0, 30.0, 3),
    ]
    worker_a = [
        _record("rebalance", 2.0, 5.0, 1),
        _record("decide", 2.5, 4.0, 2, parent=1),
        _record("save", 5.5, 8.5, 3),
        _record("create", -5.0, -4.0, 4),  # before the window
    ]
    worker_b = [_record("rebalance", 3.0, 6.0, 1)]
    spans = merge(100, {100: front, 201: worker_a, 202: worker_b}, window=(0.0, 40.0))
    assert {s.name for s in spans} == {"http", "dispatch", "rebalance", "decide", "save"}

    dispatch = next(s for s in spans if s.name == "dispatch")
    assert dispatch.parent.name == "http"  # handler thread under the client span
    rebalance_a = next(s for s in spans if s.name == "rebalance" and s.pid == 201)
    rebalance_b = next(s for s in spans if s.name == "rebalance" and s.pid == 202)
    save = next(s for s in spans if s.name == "save")
    decide = next(s for s in spans if s.name == "decide")
    # Worker roots join the parent process, never another worker, even
    # when that worker's span encloses them in time.
    assert rebalance_a.parent is dispatch
    assert save.parent is dispatch
    assert rebalance_b.parent is dispatch
    assert decide.parent is rebalance_a
    # Dispatch self time: 8 s less the union [2, 6] + [5.5, 8.5] = 6.5 s.
    assert self_time(dispatch) == pytest.approx(1.5)
    table = layer_table(spans)
    assert table["rebalance"].busy_s == pytest.approx(6.0)
    assert table["http"].calls == 2


def _work_in_child():
    _Layer().outer(5)


def test_forked_children_hand_back_their_spans(tmp_path):
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(_Layer, "inner", "layer.inner")
    try:
        tracer.collect_children(tmp_path)
        _Layer().inner(1)  # a parent span the child must not report again
        child = mp.get_context("fork").Process(target=_work_in_child)
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 0
    finally:
        tracer.unwrap_all()
    children = load_child_records(tmp_path)
    assert list(children) == [child.pid]
    assert sorted(r[3] for r in children[child.pid]) == ["layer.inner", "layer.outer"]
    spans = merge(tracer.pid, {tracer.pid: tracer.records, **children})
    table = layer_table(spans)
    assert table["layer.inner"].calls == 2
    assert table["layer.outer"].calls == 1
