"""Span arithmetic of the tracer on a clock that ticks one second per read."""

import itertools

import tracer


def test_self_time_and_recursion(monkeypatch):
    clock = itertools.count(0, 10**9)
    monkeypatch.setattr(tracer.time, "perf_counter_ns", lambda: next(clock))
    t = tracer.Tracer()
    inner = t.wrap("torus.sample", lambda: None)
    outer = t.wrap("suites.table1", lambda: (inner(), inner()))

    def rec(n):
        return rec_traced(n - 1) if n else None

    rec_traced = t.wrap("suites.dft", rec)

    outer()  # not inside an operation: leaves no span
    t.begin_op()
    outer()      # outer 0..5 s, inner 1..2 s and 3..4 s
    rec_traced(1)  # 6..9 s around a nested 7..8 s
    t.end_op()
    out = t.summary(0)
    assert out["trace.spans"] == 5
    assert out["torus.sample_calls"] == 2
    assert out["torus.sample_s"] == 2.0
    assert out["suites.table1_s"] == 5.0 and out["suites.table1_self_s"] == 3.0
    assert out["suites.dft_s"] == 3.0 and out["suites.dft_self_s"] == 3.0
    assert list(t.parent) == [-1, 0, 0, -1, 3]
