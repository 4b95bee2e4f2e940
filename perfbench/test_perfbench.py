"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

from __future__ import annotations

import array
import json
import sys
import threading
import time

import pytest

import compare
import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def make_trace(spans, names=None) -> tracing.Trace:
    """spans: (sid, name, start, end, parent, tid) tuples."""
    names = names or sorted({s[1] for s in spans})
    threads = []
    for tid in sorted({s[5] for s in spans}):
        mine = [s for s in spans if s[5] == tid]
        cols = [array.array("q", [s[0] for s in mine]),
                array.array("i", [names.index(s[1]) for s in mine]),
                array.array("d", [s[2] for s in mine]),
                array.array("d", [s[3] for s in mine]),
                array.array("q", [s[4] for s in mine])]
        threads.append(tracing.ThreadSpans(tid, *cols))
    return tracing.Trace(names, {}, threads)


def test_self_time_nested():
    trace = make_trace([
        (0, "a", 0.0, 10.0, -1, 1),
        (1, "b", 1.0, 4.0, 0, 1),
        (2, "c", 2.0, 3.0, 1, 1),
        (3, "b", 5.0, 7.0, 0, 1),
    ])
    got = tracing.self_times(trace)
    assert got["a"] == pytest.approx((10 - 3 - 2, 1))
    assert got["b"] == pytest.approx((2 + 2, 2))
    assert got["c"] == pytest.approx((1, 1))


def test_self_time_recursive():
    # f calls itself twice deep; each level's self time excludes the next
    trace = make_trace([
        (0, "f", 0.0, 8.0, -1, 1),
        (1, "f", 1.0, 6.0, 0, 1),
        (2, "f", 2.0, 3.0, 1, 1),
    ])
    # self times 3 + 4 + 1: the outer span's duration, counted once
    assert tracing.self_times(trace)["f"] == pytest.approx((8.0, 3))


def test_self_time_two_threads():
    # the worker thread's spans overlap the main span in time but are not
    # its children, so they take nothing from its self time
    trace = make_trace([
        (0, "scan", 0.0, 10.0, -1, 1),
        (1, "inverse", 2.0, 5.0, -1, 2),
        (2, "bruhat", 3.0, 4.0, 1, 2),
        (3, "inverse", 6.0, 7.0, 0, 1),
    ])
    got = tracing.self_times(trace)
    assert got["scan"] == pytest.approx((9.0, 1))
    assert got["inverse"] == pytest.approx((2.0 + 1.0, 2))
    assert got["bruhat"] == pytest.approx((1.0, 1))


def test_tracer_parents_per_thread(tmp_path):
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2)

    def leaf():
        barrier.wait(timeout=10)

    leaf = tracer.span("leaf", leaf)
    outer = tracer.span("outer", lambda: leaf())
    worker = threading.Thread(target=outer)
    worker.start()
    outer()
    worker.join(timeout=10)
    assert not worker.is_alive()
    path = tmp_path / "spans.bin"
    tracer.dump(path)
    trace = tracing.load(path)
    assert len(trace.threads) == 2
    for t in trace.threads:
        by_sid = dict(zip(t.sid, t.name))
        names = [trace.names[n] for n in t.name]
        assert sorted(names) == ["leaf", "outer"]
        for sid, nid, parent in zip(t.sid, t.name, t.parent):
            if trace.names[nid] == "leaf":
                assert trace.names[by_sid[parent]] == "outer"
            else:
                assert parent == -1


def test_quiet_span_hides_nested_calls(tmp_path):
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("outer", lambda: inner(), quiet=True)
    outer()
    inner()
    path = tmp_path / "spans.bin"
    tracer.dump(path)
    got = tracing.self_times(tracing.load(path))
    assert got["outer"][1] == 1 and got["inner"][1] == 1


def test_digest_check_rejects_altered_stdout():
    out = b"PASS scan-inverse: checked=1088\n"
    ref = workloads.fingerprint(0, out)
    assert workloads.output_ok(ref, 0, 0, out)
    assert not workloads.output_ok(ref, 0, 0, out.replace(b"1088", b"1087"))
    assert not workloads.output_ok(ref, 0, 1, out)
    assert not workloads.output_ok(ref, 5, 0, out.replace(b"PASS", b"FAIL"))


def test_invariant_summary_ignores_labels_only():
    a = ("suite: group H3, cap full\n"
         "PASS scan-spherical [I={1} spherical]: checked=10 violations=2 (expected)\n"
         "    z=e y=1 x=1,2 lhs=v rhs=0 witness_exponent=1\n"
         "  (1, 1,2)   1*v^1\n")
    b = ("suite: group file:w/x.txt, cap full\n"
         "PASS scan-spherical [I={3} spherical]: checked=10 violations=2 (expected)\n"
         "    z=e y=3 x=3,1 lhs=v rhs=0 witness_exponent=1\n"
         "  (2, 2,3)   1*v^1\n")
    assert workloads.invariant_summary(a) == workloads.invariant_summary(b)
    c = b.replace("checked=10", "checked=11")
    assert workloads.invariant_summary(a) != workloads.invariant_summary(c)


def test_relabelled_inputs():
    w = workloads.WORKLOADS["parabolic-B4"]
    zero = workloads.make_inputs(w, 0, "work")
    assert zero.argv[2] == "B4" and zero.files == {}
    seeded = workloads.make_inputs(w, 7, "work")
    perm = workloads.relabelling(4, 7)
    (text,) = seeded.files.values()
    assert seeded.argv[2] == "file:work/parabolic-B4-seed7.txt"
    assert seeded.argv[4] == ",".join(
        str(p) for p in sorted(perm[t - 1] for t in (2, 3, 4)))
    bonds = {tuple(map(int, line.split()))
             for line in text.splitlines()[1:]}
    assert bonds == {(min(perm[s - 1], perm[t - 1]),
                      max(perm[s - 1], perm[t - 1]), m)
                     for s, t, m in w.bonds}


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]
    faster = [v * 0.8 for v in base]
    slower = [v * 1.3 for v in base]
    same = list(reversed(base))
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 8.0, 12.0, 10.0]
    assert compare.verdict(base, faster, True, 0.1)["verdict"] == "improved"
    assert compare.verdict(base, slower, True, 0.1)["verdict"] == "worse"
    assert compare.verdict(base, same, True, 0.1)["verdict"] == "no worse"
    assert compare.verdict(noisy, same, True, 0.1)["verdict"] == "unresolved"
    # for a higher-is-better metric the same numbers flip
    assert compare.verdict(base, faster, False, 0.1)["verdict"] == "worse"
    row = compare.verdict(base, faster, True, 0.1)
    assert (row["change_wins"], row["parent_wins"], row["pairs"]) == (10, 0, 10)


def test_end_to_end_metrics_match_benchmark_json(monkeypatch):
    w = workloads.WORKLOADS["suite-H3"]
    out = b"suite result: PASS\n"
    ref = {"setup": workloads.fingerprint(0, out),
           "run": workloads.fingerprint(0, out)}
    monkeypatch.setattr(run, "run_process",
                        lambda cmd, env: run.Sample(time.perf_counter(), 1.0,
                                                    1.0, 30.0, 0, out, b""))
    inputs = workloads.make_inputs(w, 0, "work")
    body = run.measure(w, inputs, 0, 2.5, ref)
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(body["result"]["metrics"]) == names
    assert body["result"]["correct"] and body["error_rate"] == 0
    for m in SPEC["end_to_end"]:
        assert body["result"]["metrics"][m["name"]]["unit"] == m["unit"]


def test_clock_probe_scales_by_units_in_window():
    probe = run.ClockProbe()
    ref = run.REF_UNIT_S
    probe.units = [(1.0, ref), (2.0, 2 * ref), (3.0, 4 * ref), (9.0, ref)]

    def sample(started, wall, cpu):
        return run.Sample(started, wall, cpu, 30.0, 0, b"", b"")

    # units ending at 2.0 and 3.0 fall inside: the clock ran 3x slow
    assert probe.scaled(sample(1.5, 2.0, 6.0)) == pytest.approx(2.0)
    # no unit inside: the one nearest the end, at 3.0
    assert probe.scaled(sample(3.5, 1.0, 8.0)) == pytest.approx(2.0)
    with probe:
        time.sleep(0.05)
    assert len(probe.units) > 4 and all(u > 0 for _, u in probe.units[4:])


def test_per_layer_metrics_match_benchmark_json():
    got = run.layer_metrics(tracing.Trace([], {}, []), 0.5)
    assert set(got) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert got[m["name"]]["unit"] == m["unit"]


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_workload_wanting_more_threads_than_cpus_is_refused(monkeypatch,
                                                            capsys):
    monkeypatch.setattr(run.os, "sched_getaffinity", lambda pid: {0})
    assert run.main(["--workload", "scan-AffA2-t2", "--seed", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "asks for 2 threads" in err


def test_traced_run_matches_untraced(tmp_path):
    argv = ["scan", "--name", "inverse", "--group", "A3"]
    env = run.child_env(0)
    run.WORK.mkdir(exist_ok=True)
    plain = run.run_process(run.cli_cmd(argv), env)
    spans = tmp_path / "spans.bin"
    traced = run.run_process(
        [sys.executable, str(run.HERE / "tracing.py"), str(spans), "--", *argv],
        env)
    assert traced.code == plain.code == 0
    assert traced.stdout == plain.stdout
    got = run.layer_metrics(tracing.load(spans), 0.0)
    assert got["coxeter.elements"]["value"] == 24
    assert got["verify.triples"]["value"] == 1088
    assert got["hecke.inverse_columns"]["value"] == 24
    assert got["parabolic.canonical_s"]["value"] == 0


def test_relabelled_suite_has_same_invariants(tmp_path):
    # B3 has no diagram symmetry, so a subset left unmapped would show
    w = workloads.Workload(name="suite-B3", preset="B3", rank=3,
                           bonds=((1, 2, 3), (2, 3, 4)),
                           argv=("suite", "--group", "{group}",
                                 "--parabolic", "{parabolic}"),
                           parabolic=(1,))
    env = run.child_env(0)
    assert workloads.relabelling(3, 4) == [3, 2, 1]

    def summary(seed, subset=None):
        inputs = workloads.make_inputs(w, seed, str(tmp_path))
        for path, text in inputs.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = inputs.argv
        if subset is not None:
            argv[argv.index("--parabolic") + 1] = subset
        sample = run.run_process(run.cli_cmd(argv), env)
        assert sample.code == 0
        return workloads.summary_digest(sample.stdout)

    assert summary(4) == summary(0)
    assert summary(4, subset="1") != summary(0)
