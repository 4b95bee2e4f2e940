"""kllab benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --write-reference

Each workload is a kllab CLI command run in fresh processes, one at a
time (a closed loop with one client), from the ``src/`` tree of the
checkout this file sits in.

``--trace 0`` alternates set-up runs (``kllab info`` on the workload's
group) with runs of the workload for about ``--seconds`` seconds.  Every
run's stdout and exit code are checked; a run that fails the check counts
in ``failed`` and its times are left out of the medians.  It reports the
end-to-end metrics named in BENCHMARK.json.  Their times are CPU times
scaled to a reference clock speed by a probe that shares the child's CPU
(see ``ClockProbe``); the plain CPU and wall times are printed as well,
not gated.

``--trace 1`` runs the workload once untraced and once under
``tracing.py``, which wraps the public functions of each kllab module, and
reports each layer's self time and counts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the full
run record (samples, seed, machine), which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE, WORKLOADS, Inputs, Workload, fingerprint, load_reference,
    make_inputs, output_ok,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
WORKDIR = WORK.relative_to(ROOT).as_posix()   # as the CLI, run in ROOT, sees it

SETUP_RUNS = 10         # set-up is timed at least this many times
SETUP_PER_CYCLE = 2     # set-up runs before each workload run
MIN_REPEATS = 2         # workload repeats per run, however long each takes
CHILD_TIMEOUT_S = 150   # a CLI process still running after this is killed
PROBE_DUTY = 0.1        # share of the pinned CPU the clock probe takes
PROBE_LOOPS = 20_000    # dict stores in one probe unit, about 3-5 ms
REF_UNIT_S = 0.003      # probe unit time at the reference clock speed

# Gated metrics.  Times are CPU times scaled to the reference clock: on a
# guest of a shared host, wall time also holds host steal, and CPU time
# follows the host's clock, which moved one workload's median CPU time by
# a quarter within ten minutes.  Plain CPU and wall times are printed and
# kept in the run record, but not gated.
END_TO_END = (("cpu_ref_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
              ("success_rate", "ratio"))
UNGATED = (("cpu_s", "s"), ("wall_s", "s"), ("setup_cpu_s", "s"),
           ("setup_wall_s", "s"), ("probe_unit_ms", "ms"))


@dataclass
class Sample:
    """One finished CLI process."""

    started: float          # time.perf_counter() at start
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def run_process(cmd: list[str], env: dict) -> Sample:
    """Run ``cmd`` in ROOT; time it and read its own rusage via wait4."""
    with tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Sample(start, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode, out, stderr)


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    # numpy's OpenBLAS pool would spin on the other CPU at import, adding
    # about 0.12 s of CPU time to every process and no speed
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "kllab.cli", *argv]


class ClockProbe:
    """How fast the CPU a child runs on was while it ran.

    On a guest of a shared host, the clock of a core moves by up to 2x
    within seconds, and a child's CPU time moves with it.  A thread of
    this process repeats a fixed unit of pure-Python work at about
    PROBE_DUTY of a CPU and records each unit's own CPU time.  The
    benchmark pins itself, and so its children and this thread, to the
    workload's CPUs, so that probe and child share a core and its clock.
    ``scaled`` turns a child's CPU time into the time it would have taken
    at the reference speed, at which one unit takes REF_UNIT_S.
    """

    def __init__(self):
        self.units: list[tuple[float, float]] = []   # (end, unit CPU time)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "ClockProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        rest = 1 / PROBE_DUTY - 1
        while True:     # at least one unit, however soon it is stopped
            start = time.thread_time()
            # scattered keys, so the table outgrows the first-level caches
            # and the unit feels the memory system as the CLI does
            store = {}
            for i in range(PROBE_LOOPS):
                store[(i * 2654435761) & 0xFFFFF] = i
            unit = time.thread_time() - start
            self.units.append((time.perf_counter(), unit))
            if self._stop.wait(unit * rest):
                return

    def unit_s(self, start: float, end: float) -> float:
        """Mean time of the units that ended between ``start`` and ``end``
        (``time.perf_counter`` values); of the unit nearest ``end`` if
        none did."""
        units = list(self.units)
        inside = [u for t, u in units if start <= t <= end]
        if inside:
            return statistics.fmean(inside)
        return min(units, key=lambda tu: abs(tu[0] - end))[1]

    def scaled(self, sample: Sample) -> float:
        """The sample's CPU time at the reference clock speed."""
        unit = self.unit_s(sample.started, sample.started + sample.wall_s)
        return sample.cpu_s * REF_UNIT_S / unit


class Checker:
    """Checks runs against the reference and keeps the tallies."""

    def __init__(self, ref: dict, seed: int, label: str):
        self.ref, self.seed, self.label = ref, seed, label
        self.attempted = 0
        self.failed = 0

    def __call__(self, sample: Sample) -> bool:
        self.attempted += 1
        ok = output_ok(self.ref, self.seed, sample.code, sample.stdout)
        if not ok:
            self.failed += 1
            tail = sample.stderr[-400:].decode(errors="replace")
            sys.stderr.write(f"{self.label}: run failed the output check "
                             f"(exit {sample.code}): {tail}\n")
        return ok


def machine_record(seed: int) -> dict:
    """Where and on what a run was made; reads files only."""
    def read(path):
        try:
            return Path(path).read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""
    cpu = next((line.split(":", 1)[1].strip()
                for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    return {"commit": git_commit(), "seed": seed,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(),
            "loadavg": read("/proc/loadavg").strip()}


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git`` directly;
    None when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(w: Workload, inputs: Inputs, seed: int, seconds: float,
            ref: dict) -> dict:
    """The untraced run: cycles of SETUP_PER_CYCLE set-up runs and one
    workload run, at least MIN_REPEATS and more while the next cycle ends
    within ``seconds`` of the run's start, then set-up runs up to
    SETUP_RUNS.  All of it runs pinned to the first ``w.threads`` usable
    CPUs, under a ClockProbe.

    Interleaving spreads the set-up samples over the whole run, so a
    shared machine's slow and fast spells weigh on both alike.
    """
    env = child_env(seed)
    setup_ok = Checker(ref["setup"], seed, f"{w.name} set-up")
    run_ok = Checker(ref["run"], seed, w.name)
    setups: list[Sample] = []
    runs: list[Sample] = []
    usable = os.sched_getaffinity(0)
    # the calling thread's affinity, inherited by the probe and children
    os.sched_setaffinity(0, sorted(usable)[:w.threads])
    try:
        with ClockProbe() as probe:
            start = time.perf_counter()
            while True:
                for _ in range(SETUP_PER_CYCLE):
                    setups.append(run_process(cli_cmd(inputs.setup_argv),
                                              env))
                runs.append(run_process(cli_cmd(inputs.argv), env))
                spent = time.perf_counter() - start
                cycle = (SETUP_PER_CYCLE
                         * statistics.median(s.wall_s for s in setups)
                         + statistics.median(r.wall_s for r in runs))
                if len(runs) >= MIN_REPEATS and spent + cycle > seconds:
                    break
            while len(setups) < SETUP_RUNS:
                setups.append(run_process(cli_cmd(inputs.setup_argv), env))
    finally:
        os.sched_setaffinity(0, usable)
    good_setups = [s for s in setups if setup_ok(s)]
    good = [r for r in runs if run_ok(r)]
    attempted = setup_ok.attempted + run_ok.attempted
    failed = setup_ok.failed + run_ok.failed
    # failed runs' times are excluded; only if nothing passed are they used
    timed = good or runs
    timed_setups = good_setups or setups
    samples = {"cpu_ref_s": [probe.scaled(r) for r in timed],
               "cpu_s": [r.cpu_s for r in timed],
               "wall_s": [r.wall_s for r in timed],
               "peak_rss_mb": [r.peak_rss_mb for r in timed],
               "setup_s": [probe.scaled(s) for s in timed_setups],
               "setup_cpu_s": [s.cpu_s for s in timed_setups],
               "setup_wall_s": [s.wall_s for s in timed_setups]}
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["probe_unit_ms"] = 1e3 * statistics.median(
        u for _, u in probe.units)
    values["success_rate"] = (attempted - failed) / attempted
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    return {"samples": samples,
            "ungated": {name: _metric(values[name], unit)
                        for name, unit in UNGATED},
            "excluded": {"runs": len(runs) - len(good),
                         "setup": len(setups) - len(good_setups)},
            "error_rate": failed / attempted,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------

#: per-layer metrics: (name, span or count it reads, what it reads)
PER_LAYER = (
    ("coxeter.enumerate_s", "coxeter.enumerate", "self"),
    ("coxeter.enumerations", "coxeter.enumerate", "spans"),
    ("coxeter.elements", "coxeter.elements", "count"),
    ("coxeter.canonical_s", "coxeter.canonical", "self"),
    ("coxeter.canonical_calls", "coxeter.canonical", "spans"),
    ("coxeter.bruhat_s", "coxeter.bruhat", "self"),
    ("coxeter.bruhat_calls", "coxeter.bruhat", "spans"),
    ("coxeter.bruhat_true_frac", "coxeter.bruhat_true", "per_bruhat"),
    ("coxeter.downset_s", "coxeter.downset", "self"),
    ("coxeter.downset_pairs", "coxeter.downset_pairs", "count"),
    ("hecke.b_s", "hecke.b", "self"),
    ("hecke.inverse_s", "hecke.inverse", "self"),
    ("hecke.inverse_columns", "hecke.inverse_columns", "count"),
    ("hecke.inversion_check_s", "hecke.inversion_check", "self"),
    ("hecke.inversion_checks", "hecke.inversion_check", "spans"),
    ("hecke.bar_s", "hecke.bar", "self"),
    ("parabolic.canonical_s", "parabolic.canonical", "self"),
    ("parabolic.canonical_elements", "parabolic.canonical_elements",
     "count"),
    ("parabolic.bar_s", "parabolic.bar", "self"),
    ("parabolic.inverse_s", "parabolic.inverse", "self"),
    ("parabolic.inversion_check_s", "parabolic.inversion_check", "self"),
    ("parabolic.inversion_checks", "parabolic.inversion_check", "spans"),
    ("parabolic.soergel_s", "parabolic.soergel", "self"),
    ("verify.scan_classical_s", "verify.scan_classical", "self"),
    ("verify.scan_inverse_s", "verify.scan_inverse", "self"),
    ("verify.scan_antispherical_s", "verify.scan_antispherical", "self"),
    ("verify.scan_spherical_s", "verify.scan_spherical", "self"),
    ("verify.triples", "verify.triples", "count"),
    ("verify.rouquier_s", "verify.rouquier", "self"),
    ("verify.suite_s", "verify.suite", "self"),
    ("laurent.mul_calls", "laurent.mul", "count"),
    ("laurent.add_calls", "laurent.add", "count"),
    ("laurent.sub_calls", "laurent.sub", "count"),
    ("cli.self_s", "cli", "self"),
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_frac") else "count"


def layer_metrics(trace: tracing.Trace, overhead_s: float) -> dict:
    """Every per-layer metric from one trace; absent spans read zero."""
    spans = tracing.self_times(trace)
    bruhat_calls = spans.get("coxeter.bruhat", (0.0, 0))[1]
    out = {}
    for name, source, kind in PER_LAYER:
        if kind == "self":
            value = spans.get(source, (0.0, 0))[0]
        elif kind == "spans":
            value = spans.get(source, (0.0, 0))[1]
        elif kind == "count":
            value = trace.counts.get(source, 0)
        else:
            value = (trace.counts.get(source, 0) / bruhat_calls
                     if bruhat_calls else 0.0)
        out[name] = _metric(value, _unit(name))
    out["trace.overhead_s"] = _metric(overhead_s, "s")
    return out


def traced(w: Workload, inputs: Inputs, seed: int, ref: dict) -> dict:
    """One untraced and one traced run of the workload."""
    env = child_env(seed)
    check = Checker(ref["run"], seed, w.name)
    plain = run_process(cli_cmd(inputs.argv), env)
    check(plain)
    spans_path = WORK / f"spans-{os.getpid()}.bin"
    try:
        run = run_process([sys.executable, str(HERE / "tracing.py"),
                           str(spans_path), "--", *inputs.argv], env)
        if check(run) and run.stdout != plain.stdout:
            check.failed += 1
            sys.stderr.write(f"{w.name}: traced stdout differs from the "
                             "untraced run\n")
        try:
            trace = tracing.load(spans_path)
        except (OSError, ValueError):   # killed before it wrote its spans
            trace = tracing.Trace([], {}, [])
    finally:
        spans_path.unlink(missing_ok=True)
    return {"untraced_wall_s": plain.wall_s, "traced_wall_s": run.wall_s,
            "spans": sum(len(t.sid) for t in trace.threads),
            "result": {"correct": check.failed == 0,
                       "attempted": check.attempted, "failed": check.failed,
                       "metrics": layer_metrics(trace,
                                                run.wall_s - plain.wall_s)}}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def run_one(w: Workload, seed: int, seconds: float, trace: bool,
            ref: dict) -> dict:
    machine = machine_record(seed)
    inputs = make_inputs(w, seed, WORKDIR)
    for path, text in inputs.files.items():
        (ROOT / path).write_text(text, encoding="utf-8")
    try:
        body = (traced(w, inputs, seed, ref[w.name]) if trace
                else measure(w, inputs, seed, seconds, ref[w.name]))
    finally:
        for path in inputs.files:
            (ROOT / path).unlink(missing_ok=True)
    return {"workload": w.name, "trace": int(trace),
            "machine": machine, **body}


def write_reference() -> None:
    """Record exit code and stdout digests of every workload at seed 0."""
    env = child_env(0)
    ref = {"commit": git_commit()}
    for w in WORKLOADS.values():
        inputs = make_inputs(w, 0, WORKDIR)
        ref[w.name] = {}
        for key, argv in (("setup", inputs.setup_argv), ("run", inputs.argv)):
            s = run_process(cli_cmd(argv), env)
            ref[w.name][key] = fingerprint(s.code, s.stdout)
    REFERENCE.write_text(json.dumps(ref, indent=2) + "\n", encoding="utf-8")


def print_metrics(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:<14} {name:<30} {m['value']:>14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record seed-0 outputs of the current tree "
                             "in reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "kllab" / "cli.py").is_file():
        sys.stderr.write(f"no kllab source tree at {SRC}\n")
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    WORK.mkdir(exist_ok=True)
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    nproc = len(os.sched_getaffinity(0))
    for name in names:
        if WORKLOADS[name].threads > nproc:
            sys.stderr.write(f"{name} asks for {WORKLOADS[name].threads} "
                             f"threads but only {nproc} CPUs are usable\n")
            return 2
    ref = load_reference()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record = run_one(WORKLOADS[name], args.seed, args.seconds,
                         bool(args.trace), ref)
        result = record["result"]
        if not args.trace:
            counts = ", ".join(f"{k} {len(v)}"
                               for k, v in record["samples"].items())
            print_metrics(name, result)
            for metric, m in record["ungated"].items():
                print(f"{name:<14} {metric:<30} {m['value']:>14.6g} "
                      f"{m['unit']} (not gated)")
            print(f"{name:<14} samples: {counts}")
            print(f"{name:<14} {'error_rate':<30} "
                  f"{record['error_rate']:>14.6g} ratio")
        else:
            print_metrics(name, result)
        print(json.dumps(record))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v
                                 for k, v in result["metrics"].items()})
    print(json.dumps(result if len(names) == 1 else total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
