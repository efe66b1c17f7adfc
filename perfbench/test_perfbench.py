"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import random
import time

import pytest

import run
import tables
import tracer
import workloads


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] and c [5, 6]; a holds b [2, 3]
    layers = ["m.root", "m.a", "n.b", "n.c"]
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1), (3, 5.0, 6.0, 0)]
    assert tracer.self_times(layers, spans) == {"m.root": 6.0, "m.a": 2.0, "n.b": 1.0, "n.c": 1.0}
    figures = tracer.aggregate([{"layers": layers, "spans": spans, "counts": {"m.root.calls": 1}}])
    assert figures["m.self_s"] == 8.0 and figures["n.self_s"] == 2.0 and figures["m.root.calls"] == 1


def test_wrapped_nested_call_links_parent_and_counts():
    t = tracer.Tracer()
    inner = t.wrap("m.inner", lambda x: x + 1)
    outer = t.wrap("m.outer", lambda x: inner(inner(x)))
    assert outer(0) == 2
    parents = {t.layers[lid]: parent for lid, _, _, parent in t.spans}
    assert [p for lid, _, _, p in t.spans] == [-1, 0, 0] and parents["m.outer"] == -1
    assert t.counts["m.outer.calls"] == 1 and t.counts["m.inner.calls"] == 2
    own = tracer.self_times(t.layers, t.spans)
    assert own["m.outer"] >= 0 and own["m.inner"] >= 0


def test_cached_function_keeps_its_cache_and_times_only_misses():
    import functools

    @functools.lru_cache(maxsize=None)
    def square(x):
        return x * x

    t = tracer.Tracer()
    wrapped = t.wrap("m.square", square)
    assert [wrapped(x) for x in (2, 3, 2, 2)] == [4, 9, 4, 4]
    assert t.counts["m.square.calls"] == 4
    assert t.cached["m.square"].cache_info().misses == 2
    assert len(t.spans) == 2


def _small_workload():
    wl = workloads.build("small-queries", 0, run.WORK / "test-small", run.ROOT)
    keep = {"laws-builtin-K", "hyperop-mu:5:4", "laws-F13_G3", "verify-default"}
    wl.invocations = [inv for inv in wl.invocations if inv.key in keep]
    return wl


def test_one_changed_output_byte_fails(monkeypatch):
    expected = json.loads((run.HERE / "expected.json").read_text())["small-queries"]
    inv = next(i for i in _small_workload().invocations if i.key == "laws-builtin-K")
    good = run.run_invocation(inv, expected)
    assert good.ok
    wall, cpu, rss, code, out = run.spawn(inv.argv)
    flipped = out[:-2] + bytes([out[-2] ^ 1]) + out[-1:]
    monkeypatch.setattr(run, "spawn", lambda argv, deadline=None: (wall, cpu, rss, code, flipped))
    bad = run.run_invocation(inv, expected)
    assert not bad.ok and bad.exit_code == 0
    assert run.Pass([good, bad]).failed == 1


def test_two_traced_passes_give_identical_counts():
    wl = _small_workload()
    counts = []
    for k in range(2):
        trace_dir = run.WORK / "test-trace" / str(k)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for old in trace_dir.glob("*.json"):
            old.unlink()
        run.run_pass(wl, {}, trace_dir)
        figures = tracer.aggregate([json.loads(f.read_text()) for f in sorted(trace_dir.glob("*.json"))])
        counts.append({k: v for k, v in figures.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["specops.hyperop.computed"] > 0 and counts[0]["hyperkernel.check_hyperring.calls"] == 2


@pytest.mark.parametrize("seed", [0, 7])
def test_generated_tables_pass_laws_except_the_corrupted_one(seed):
    wl = workloads.build("small-queries", seed, run.WORK / "test-tables", run.ROOT)
    laws = [inv for inv in wl.invocations if inv.key.startswith("laws-F")]
    assert len(laws) == len(tables.all_tables())
    for inv in laws:
        wall, cpu, rss, code, out = run.spawn(inv.argv)
        doc = json.loads(out)
        assert code == inv.exit_code and doc["ok"] == (inv.exit_code == 0), inv.key
        if inv.exit_code:
            witness = workloads._relabel(doc["report"]["multiplicative_monoid"]["witness"], inv.canonical)
            assert witness == ["commutativity", "2", "3"]


def test_scale_is_reference_over_median_probe_near_the_invocation():
    with run.Speedometer() as speed:
        time.sleep(0.2)
    assert len(speed.samples) >= 2 and all(d > 0 for _, d in speed.samples)
    speed.samples = [(0.0, 0.003), (1.0, 0.003), (2.0, 0.006), (3.0, 0.006), (4.0, 0.006), (9.0, 0.0015)]
    assert speed.scale(2.0, 4.0) == pytest.approx(run.REF_PROBE_S / 0.006)
    assert speed.scale(20.0, 21.0) == pytest.approx(run.REF_PROBE_S / 0.0045)  # none near: every probe counts


def test_relabeling_is_injective_and_comma_free():
    carrier = tables.quotient_table(47, 1).carrier
    names = tables.relabeling(carrier, random.Random(3))
    assert len(set(names.values())) == len(carrier)
    assert not any("," in v for v in names.values())


def test_round_trip_check_rejects_a_comma_label(tmp_path):
    t = tables.quotient_table(13, 3)
    names = {c: c for c in t.carrier} | {t.carrier[1]: "a,b"}
    with pytest.raises(RuntimeError):
        tables.write_checked(tmp_path / "bad.json", tables.to_json(t, names))
