"""Span tracing for the benchmark's traced run.

The benchmark wraps the public functions of each kllab module from its
own files; kllab itself carries no tracing code.  Each wrapped call
records a span: name, start, end, parent and thread.  The parent is the
innermost open span on the same thread, so recursive calls nest under
each other and spans on the scan's worker threads form their own trees.
Spans stay in memory, one compact column set per thread, and are written
out once at the end.  ``LaurentPoly`` arithmetic runs millions of times,
so it is counted, not spanned.

Run as a script, this file is the traced CLI process:

    python3 perfbench/tracing.py SPANS_FILE -- <kllab arguments>
"""

from __future__ import annotations

import array
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class _ThreadLog:
    __slots__ = ("sid", "name", "start", "end", "parent", "stack", "quiet")

    def __init__(self):
        self.sid = array.array("q")
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.stack: list[int] = []
        self.quiet = 0


class Tracer:
    """Records spans and counts from wrapped functions; safe under threads.

    Each thread appends only to its own log, span ids come from one
    ``itertools.count`` (atomic under the interpreter lock), and every
    shared tally is a single dict store or ``next`` call.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._logs: dict[int, _ThreadLog] = {}
        self._counters: dict[str, itertools.count] = {}
        self._tallies: dict[str, dict] = {}
        self._peaks: dict[str, int] = {}

    def _log(self) -> _ThreadLog:
        tid = threading.get_ident()
        log = self._logs.get(tid)
        if log is None:
            log = self._logs[tid] = _ThreadLog()
        return log

    def span(self, name: str, fn, quiet: bool = False, after=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        While a ``quiet`` span is open, wrapped calls beneath it on the
        same thread record nothing, so their time is its self time.
        ``after(args, result)`` runs after each recorded call.
        """
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        ids = self._ids
        clock = time.perf_counter
        log_for = self._log

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = log_for()
            if log.quiet:
                return fn(*args, **kwargs)
            stack = log.stack
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            log.quiet += quiet
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                log.quiet -= quiet
                stack.pop()
                log.sid.append(sid)
                log.name.append(nid)
                log.start.append(start)
                log.end.append(end)
                log.parent.append(parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str):
        """The ``next`` of the named call counter."""
        return self._counters.setdefault(name, itertools.count()).__next__

    def counted(self, name: str, fn):
        """Wrap ``fn`` so each call only bumps the counter ``name``."""
        bump = self.counter(name)

        @functools.wraps(fn)
        def wrapper(*args):
            bump()
            return fn(*args)

        return wrapper

    def tally(self, name: str, key, amount: int = 1) -> None:
        """Count ``amount`` under ``name`` once per distinct ``key``."""
        self._tallies.setdefault(name, {})[key] = amount

    def peak(self, name: str, value: int) -> None:
        self._peaks[name] = max(self._peaks.get(name, 0), value)

    def dump(self, path) -> None:
        """Write every span and count: a JSON header line, then each
        thread's columns as raw arrays.  Call once, after all threads end."""
        logs = list(self._logs.items())
        counts = dict(self._peaks)
        counts.update({k: next(c) for k, c in self._counters.items()})
        counts.update({k: sum(v.values()) for k, v in self._tallies.items()})
        header = {"names": self.names, "counts": counts,
                  "threads": [{"tid": tid, "spans": len(log.sid)}
                              for tid, log in logs]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, log in logs:
                for col in (log.sid, log.name, log.start, log.end,
                            log.parent):
                    col.tofile(fh)


@dataclass
class ThreadSpans:
    tid: int
    sid: array.array
    name: array.array
    start: array.array
    end: array.array
    parent: array.array


@dataclass
class Trace:
    names: list[str]
    counts: dict[str, int]
    threads: list[ThreadSpans]


def load(path) -> Trace:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        threads = []
        for t in header["threads"]:
            cols = []
            for code in "qiddq":
                col = array.array(code)
                col.fromfile(fh, t["spans"])
                cols.append(col)
            threads.append(ThreadSpans(t["tid"], *cols))
    return Trace(header["names"], header["counts"], threads)


def self_times(trace: Trace) -> dict[str, tuple[float, int]]:
    """Per span name: (summed self seconds, number of spans).

    A span's self time is its duration minus the part of it that its
    child spans cover.  Children share their parent's thread and so never
    overlap each other; each is clipped to the parent's interval.
    """
    parents = set()
    for t in trace.threads:
        parents.update(t.parent)
    bounds = {}
    for t in trace.threads:
        for sid, start, end in zip(t.sid, t.start, t.end):
            if sid in parents:
                bounds[sid] = (start, end)
    cover: dict[int, float] = {}
    for t in trace.threads:
        for parent, start, end in zip(t.parent, t.start, t.end):
            if parent >= 0:
                lo, hi = bounds[parent]
                cover[parent] = (cover.get(parent, 0.0)
                                 + max(0.0, min(end, hi) - max(start, lo)))
    out = {name: [0.0, 0] for name in trace.names}
    for t in trace.threads:
        for sid, nid, start, end in zip(t.sid, t.name, t.start, t.end):
            acc = out[trace.names[nid]]
            acc[0] += end - start - cover.get(sid, 0.0)
            acc[1] += 1
    return {name: (s, n) for name, (s, n) in out.items()}


# ----------------------------------------------------------------------
# what the traced run wraps
# ----------------------------------------------------------------------

#: (module, attribute, span name); the layer is the span name's prefix
SPANS = (
    ("coxeter", "GroupTable.__init__", "coxeter.enumerate"),
    ("coxeter", "GroupTable.canonical", "coxeter.canonical"),
    ("coxeter", "GroupTable.element", "coxeter.canonical"),
    ("coxeter", "GroupTable.bruhat_leq", "coxeter.bruhat"),
    ("coxeter", "GroupTable.downset", "coxeter.downset"),
    ("hecke", "KLTable.kl_basis_element", "hecke.b"),
    ("hecke", "KLTable.kl_basis_element_bar_solve", "hecke.b"),
    ("hecke", "KLTable.inverse_column", "hecke.inverse"),
    ("hecke", "KLTable.check_inversion_identity", "hecke.inversion_check"),
    ("hecke", "bar_element", "hecke.bar"),
    ("hecke", "bar_delta", "hecke.bar"),
    ("parabolic", "ParabolicKLTable.canonical_basis_element",
     "parabolic.canonical"),
    ("parabolic", "bar_parabolic", "parabolic.bar"),
    ("parabolic", "project", "parabolic.bar"),
    ("parabolic", "ParabolicKLTable.inverse_column", "parabolic.inverse"),
    ("parabolic", "ParabolicKLTable.check_inversion_identity",
     "parabolic.inversion_check"),
    ("parabolic", "check_soergel_identification", "parabolic.soergel"),
    ("verify", "scan_monotonicity_classical", "verify.scan_classical"),
    ("verify", "scan_monotonicity_inverse", "verify.scan_inverse"),
    ("verify", "scan_monotonicity_antispherical",
     "verify.scan_antispherical"),
    ("verify", "scan_monotonicity_spherical", "verify.scan_spherical"),
    ("verify", "rouquier_multiplicities", "verify.rouquier"),
    ("verify", "rouquier_shadow_ok", "verify.rouquier"),
    ("verify", "run_identity_suite", "verify.suite"),
    ("cli", "main", "cli"),
)

#: (module, attribute, counter name) for calls that are counted only
COUNTED = (
    ("laurent", "LaurentPoly.__mul__", "laurent.mul"),
    ("laurent", "LaurentPoly.__rmul__", "laurent.mul"),
    ("laurent", "LaurentPoly.__add__", "laurent.add"),
    ("laurent", "LaurentPoly.__sub__", "laurent.sub"),
)


def _hooks(tracer: Tracer) -> dict[str, dict]:
    """Extra keyword arguments of ``Tracer.span`` per span name."""
    bruhat_true = tracer.counter("coxeter.bruhat_true")

    def per_element(name, size=None):
        def after(args, result):
            table, x = args[0], args[1]
            tracer.tally(name, (id(table), x.index),
                         1 if size is None else size(result))
        return after

    def triples(args, result):
        tracer.tally("verify.triples", object(), result[0])

    return {
        "coxeter.enumerate": {
            "quiet": True,
            "after": lambda args, _: tracer.peak("coxeter.elements",
                                                 len(args[0]))},
        "coxeter.bruhat": {
            "after": lambda args, result: result and bruhat_true()},
        "coxeter.downset": {
            "after": per_element("coxeter.downset_pairs", len)},
        "hecke.inverse": {"after": per_element("hecke.inverse_columns")},
        "parabolic.canonical": {
            "after": per_element("parabolic.canonical_elements")},
        **{name: {"after": triples} for name in (
            "verify.scan_classical", "verify.scan_inverse",
            "verify.scan_antispherical", "verify.scan_spherical")},
    }


def _replace(modules, old, new) -> None:
    """Point every module-level reference to ``old`` at ``new``, including
    values of module-level dicts and the tuples inside them."""
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is old:
                        val[k] = new
                    elif isinstance(v, tuple) and any(x is old for x in v):
                        val[k] = tuple(new if x is old else x for x in v)


def install(tracer: Tracer, package: str = "kllab") -> list[str]:
    """Wrap everything in SPANS and COUNTED; return what was not found.

    Lookups by name, so a function a later version renames or removes is
    reported missing and its metrics read zero rather than failing.
    """
    by_name = {}
    for mod_name in sorted({m for m, _, _ in SPANS + COUNTED}):
        try:
            by_name[mod_name] = importlib.import_module(f"{package}.{mod_name}")
        except ModuleNotFoundError:
            pass
    modules = list(by_name.values())
    hooks = _hooks(tracer)
    missing = []
    for mod_name, attr, name in SPANS + COUNTED:
        owner = by_name.get(mod_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        if (mod_name, attr, name) in COUNTED:
            wrapper = tracer.counted(name, fn)
        else:
            wrapper = tracer.span(name, fn, **hooks.get(name, {}))
        if path:
            setattr(owner, leaf, wrapper)
        else:
            _replace(modules, fn, wrapper)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracing.py SPANS_FILE -- <kllab arguments>\n")
        return 2
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("kllab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"kllab imported from {cli.__file__}, not {SRC}\n")
        return 2
    tracer = Tracer()
    for name in install(tracer):
        sys.stderr.write(f"trace: {name} not found, not traced\n")
    try:
        code = cli.main(argv[2:])
    except SystemExit as exc:  # argparse rejects its arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
