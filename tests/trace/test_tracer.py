"""Unit tests for repro.trace.tracer: emit mechanics, ring buffer,
filtering, JSONL export, and digest stability."""

import json

import pytest

from repro.engine.simulator import Simulator
from repro.trace import (
    CAT_PKT,
    CAT_SYSCALL,
    NULL_TRACER,
    Tracer,
    callback_name,
    flow_of,
    get_default_tracer,
    set_default_tracer,
)


def make_traced_sim(**kw):
    tracer = Tracer(**kw)
    sim = Simulator(seed=0, tracer=tracer)
    return sim, tracer


def test_emit_records_timestamp_and_sequence():
    sim, tracer = make_traced_sim()
    sim.schedule(10.0, lambda: tracer.pkt_enqueue("ifq", "a:1>b:2/17"))
    sim.schedule(20.0, lambda: tracer.pkt_drop("ifq", "a:1>b:2/17",
                                               reason="full"))
    sim.run_until(30.0)
    recs = list(tracer.records(cat=CAT_PKT))
    assert [r.etype for r in recs] == ["pkt_enqueue", "pkt_drop"]
    assert [r.t for r in recs] == [10.0, 20.0]
    # seq numbers are globally monotonic across all categories
    seqs = [r.seq for r in tracer.records()]
    assert seqs == sorted(seqs)


def test_disabled_tracer_records_nothing():
    sim, tracer = make_traced_sim(enabled=False)
    tracer.pkt_enqueue("ifq", "x")
    tracer.syscall_enter("p", "recvfrom")
    assert len(tracer) == 0


def test_null_tracer_is_shared_and_disabled():
    assert not NULL_TRACER.enabled
    NULL_TRACER.pkt_enqueue("ifq", "x")
    assert len(NULL_TRACER) == 0
    sim = Simulator(seed=0)
    assert sim.trace is NULL_TRACER


def test_ring_buffer_capacity_drops_oldest():
    tracer = Tracer(capacity=3)
    for i in range(5):
        tracer.emit(CAT_PKT, "pkt_enqueue", queue="q", flow=str(i))
    flows = [r.args["flow"] for r in tracer.records()]
    assert flows == ["2", "3", "4"]


def test_unbounded_capacity_keeps_everything():
    tracer = Tracer(capacity=None)
    for i in range(100000):
        tracer.emit(CAT_PKT, "pkt_enqueue", queue="q", flow="f")
    assert len(tracer) == 100000


def test_records_filtering():
    tracer = Tracer()
    tracer.pkt_enqueue("ifq", "10.0.0.2:9>10.0.0.1:7/17")
    tracer.pkt_enqueue("ipq", "10.0.0.3:9>10.0.0.1:7/17")
    tracer.syscall_enter("proc-a", "sendto")
    assert len(list(tracer.records(cat=CAT_PKT))) == 2
    assert len(list(tracer.records(cat=CAT_SYSCALL))) == 1
    assert len(list(tracer.records(etype="pkt_enqueue"))) == 2
    # flow filter is a substring match on args["flow"]
    assert len(list(tracer.records(flow="10.0.0.2"))) == 1
    assert len(list(tracer.records(flow="10.0.0.1"))) == 2
    # records without a flow arg never match a flow filter
    assert len(list(tracer.records(flow="proc-a"))) == 0


def test_clear_resets_buffer_and_sequence():
    tracer = Tracer()
    tracer.pkt_enqueue("q", "f")
    tracer.clear()
    assert len(tracer) == 0
    tracer.pkt_enqueue("q", "f")
    assert next(tracer.records()).seq == 0


def test_jsonl_round_trip(tmp_path):
    sim, tracer = make_traced_sim()
    sim.schedule(5.0, lambda: tracer.syscall_enter("p0", "recvfrom"))
    sim.run_until(10.0)
    path = tmp_path / "trace.jsonl"
    n = tracer.dump_jsonl(str(path))
    assert n == len(tracer)
    lines = path.read_text().splitlines()
    assert len(lines) == n
    rec = json.loads(lines[-1])
    assert rec["cat"] == CAT_SYSCALL
    assert rec["type"] == "syscall_enter"
    assert rec["args"] == {"proc": "p0", "name": "recvfrom"}
    assert rec["t"] == 5.0


def test_streaming_sink_writes_as_events_happen(tmp_path):
    path = tmp_path / "stream.jsonl"
    tracer = Tracer(capacity=2)  # ring smaller than the event count
    tracer.open_sink(str(path))
    for i in range(5):
        tracer.pkt_enqueue("q", str(i))
    tracer.close()
    lines = path.read_text().splitlines()
    # sink gets all records even though the ring only kept the last 2
    assert len(lines) == 5
    assert len(tracer) == 2


def test_digest_is_stable_and_order_sensitive():
    def build(order):
        tracer = Tracer()
        for queue in order:
            tracer.pkt_enqueue(queue, "f")
        return tracer.digest()

    d1 = build(["a", "b"])
    d2 = build(["a", "b"])
    d3 = build(["b", "a"])
    assert d1 == d2
    assert d1["counts"] == d3["counts"]  # same events...
    assert d1["order_hash"] != d3["order_hash"]  # ...different order


def test_digest_counts_engine_records_apart():
    """Engine records stay out of the behaviour digest and are
    counted as ``engine_events`` instead."""
    plain = Tracer()
    plain.pkt_enqueue("q", "f")
    busy = Tracer()
    busy.event_fired("a")
    busy.pkt_enqueue("q", "f")
    busy.event_fired("b")
    d_plain, d_busy = plain.digest(), busy.digest()
    assert d_plain["engine_events"] == 0
    assert d_busy["engine_events"] == 2
    d_busy["engine_events"] = 0
    assert d_busy == d_plain


def test_digest_ignores_seq_numbers():
    t1 = Tracer()
    t1.pkt_enqueue("q", "f")
    t2 = Tracer()
    t2.syscall_enter("p", "x")  # burn a seq number...
    t2.clear()                  # ...then reset
    t2.pkt_enqueue("q", "f")
    assert t1.digest() == t2.digest()


def test_default_tracer_applies_to_new_simulators():
    tracer = Tracer()
    set_default_tracer(tracer)
    try:
        assert get_default_tracer() is tracer
        sim = Simulator(seed=0)
        assert sim.trace is tracer
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        assert len(tracer) >= 1
    finally:
        set_default_tracer(None)
    assert Simulator(seed=0).trace is NULL_TRACER


def test_explicit_tracer_beats_default():
    default = Tracer()
    mine = Tracer()
    set_default_tracer(default)
    try:
        sim = Simulator(seed=0, tracer=mine)
        assert sim.trace is mine
    finally:
        set_default_tracer(None)


def test_empty_tracer_is_truthy():
    # __len__ == 0 must not make a tracer falsy (regression: the
    # default-tracer fallback used `or` and silently discarded it)
    assert bool(Tracer())


def test_flow_of_renders_ports_and_missing_ports():
    class T:
        src_port, dst_port = 1234, 80

    class P:
        src, dst, proto = "10.0.0.2", "10.0.0.1", 6
        transport = T()

    assert flow_of(P()) == "10.0.0.2:1234>10.0.0.1:80/6"

    class Bare:
        src, dst, proto = "a", "b", 17
        transport = None

    assert flow_of(Bare()) == "a:->b:-/17"


def test_callback_name():
    def named():
        pass

    assert callback_name(named).endswith("named")

    class CallableObj:
        def __call__(self):
            pass

    obj = CallableObj()
    assert "CallableObj" in callback_name(obj)
