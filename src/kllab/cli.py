"""
Command-line frontend.

Subcommands: ``info`` (group order and longest length), ``kl`` / ``invkl``
(polynomial tables), ``parabolic`` (the four parabolic families),
``rouquier`` (graded multiplicity table of one standard object), ``scan``
(one named monotonicity scan) and ``suite`` (every identity check plus
every scan).  ``kl`` (with ``--mu`` too), ``invkl`` and ``parabolic`` read
their columns once as the flat arrays of ``kernel.stack_terms``
(``_table_pairs``) and print them by one printer (``_cmd_table``), which
streams text and csv a run of columns at a time and JSON in key order.
``scan`` fills its check by ``verify.scan_into``, as the suite does.

Output is deterministic byte-for-byte for a fixed configuration, at any
``--threads`` value, in all three formats (text, csv, json).  Exit codes:
0 success, 1 computation failure or an expected-pass scan with
violations, 2 usage errors (an unwritable --out path among them).  The
environment variable KLLAB_MAX_ELEMENTS bounds enumeration (default
2,000,000); a value that is not an integer >= 1 is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from .coxeter import (
    CapExceededError, CoxeterSpecError, ResourceLimitError, SettingError,
    parse_word, render_word,
)
from .hecke import InvariantError, KLTable
from .kernel import narrow, pieces, stack_terms
from .laurent import LaurentPoly
from .parabolic import (
    ANTISPHERICAL, SPHERICAL, FlavorMismatchError, ParabolicContext,
    ParabolicKLTable,
)
from . import verify
from .verify import CapRequiredError, CheckResult, build_group


def poly_csv(p: LaurentPoly) -> str:
    """CSV cell rendering: 'c*v^k' terms joined by '+', ascending exponent."""
    return "+".join(f"{c}*v^{e}" for e, c in p.items()) or "0"


def _subset_parse(text: str, rank: int) -> frozenset[int]:
    text = text.strip()
    if text in ("", "none", "-"):
        return frozenset()
    try:
        subset = frozenset(int(part) - 1 for part in text.split(","))
    except ValueError:
        raise CoxeterSpecError(f"malformed generator subset {text!r}")
    for t in subset:
        if not 0 <= t < rank:
            raise CoxeterSpecError(f"generator index {t + 1} out of range")
    return subset


def _subset_text(subset) -> str:
    return ",".join(str(t + 1) for t in sorted(subset)) if subset else "-"


class OutputPathError(ValueError):
    """The --out path cannot be written."""


class _Output:
    """The chosen format and destination; every format is streamed."""

    def __init__(self, fmt: str, out_path: str | None):
        self.fmt = fmt
        self.out_path = out_path
        if out_path:  # fail before computing; keep an existing file
            new = not os.path.lexists(out_path)
            self._write("a", lambda fh: None)
            if new:  # and leave no file behind a failed run
                os.remove(out_path)

    def emit(self, lines) -> None:
        self._stream(line + "\n" for line in lines)

    def emit_json(self, obj, sort_keys: bool = True) -> None:
        self._stream(itertools.chain(json.JSONEncoder(
            indent=2, sort_keys=sort_keys).iterencode(obj), ["\n"]))

    def _stream(self, pieces) -> None:
        def write(fh):      # the pieces, a few hundred at a time
            while part := "".join(itertools.islice(pieces, 256)):
                fh.write(part)
        self._write("w", write)

    def emit_csv(self, header: list[str], rows) -> None:
        def write(fh):
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        self._write("w", write)

    def _write(self, mode: str, write) -> None:
        if not self.out_path:
            write(sys.stdout)
            return
        try:
            with open(self.out_path, mode, encoding="utf-8", newline="") as fh:
                write(fh)
        except OSError as exc:
            raise OutputPathError(
                f"cannot write output file {self.out_path!r}: "
                f"{exc.strerror}") from None


# ----------------------------------------------------------------------
# subcommand bodies
# ----------------------------------------------------------------------

def _cmd_info(args, out: _Output) -> int:
    group = build_group(args.group, args.cap)
    order = len(group)
    longest = group.longest_length()
    complete = group.is_complete()
    if out.fmt == "json":
        out.emit_json({
            "command": "info", "group": args.group, "cap": args.cap,
            "order": order, "longest_length": longest, "complete": complete,
        })
    elif out.fmt == "csv":
        out.emit_csv(["group", "cap", "order", "longest_length", "complete"],
                     [[args.group, "" if args.cap is None else args.cap,
                       order, longest, str(complete).lower()]])
    else:
        within = "" if complete else f" (within length cap {args.cap})"
        out.emit([f"order {order}{within}, longest length {longest}"])
    return 0


class _SortedEntries(dict):
    """The JSON entries "word(y)|word(x)" of the id pairs (ys[k], xs[k]),
    ``values(part)`` giving the values of the pairs at positions ``part``,
    built as an encoder without ``sort_keys`` reaches them in ``items()``.
    They come in the key order ``sort_keys`` gives: no word holds "|", so
    the order of word(y) + "|", then of word(x).  The dict's own storage
    stays empty."""

    def __init__(self, words: list[str], ys: np.ndarray, xs: np.ndarray,
                 values):
        rank_y, rank_x = (np.argsort(np.argsort(np.array(keys))) for keys in (
            [w + "|" for w in words], words))
        self.order = np.lexsort((rank_x[xs], rank_y[ys]))
        self.words, self.ys, self.xs, self.values = words, ys, xs, values

    def __len__(self) -> int:
        return len(self.order)

    def items(self):
        words = self.words
        for lo in range(0, len(self.order), 1024):
            part = self.order[lo:lo + 1024]
            yield from zip([f"{words[y]}|{words[x]}" for y, x in zip(
                self.ys[part].tolist(), self.xs[part].tolist())],
                self.values(part))


class _Pairs(NamedTuple):
    """Entries of a table, by column x, then by row y: entry k, at
    (ys[k], xs[k]), holds the terms values[j] v^exps[j] for j from
    ends[k - 1] (0 for k = 0) to ends[k], or, with ``ends`` None (the mu
    table), the one integer values[k]."""

    ys: np.ndarray
    xs: np.ndarray
    ends: np.ndarray | None
    exps: np.ndarray | None
    values: np.ndarray

    @staticmethod
    def join(runs: list["_Pairs"]) -> "_Pairs":
        """The entries of ``runs`` end to end."""
        base = np.cumsum([0] + [len(r.exps) for r in runs])
        return _Pairs(*map(np.concatenate, zip(*[
            r._replace(ends=r.ends + b) for r, b in zip(runs, base)])))

    def mu(self) -> "_Pairs":
        """The v^1 coefficient of each entry, 0 where it has none."""
        one = self.exps == 1
        mu = np.zeros(len(self.ys), self.values.dtype)
        mu[np.searchsorted(self.ends, np.flatnonzero(one), "right")] = \
            self.values[one]
        return _Pairs(self.ys, self.xs, None, None, mu)

    def cells(self) -> list[str]:
        """Each entry as ``poly_csv`` renders it, or its integer."""
        if self.ends is None:
            return [str(m) for m in self.values.tolist()]
        terms = [f"{c}*v^{e}" for e, c in zip(self.exps.tolist(),
                                               self.values.tolist())]
        ends = self.ends.tolist()
        return ["+".join(terms[a:b]) for a, b in zip([0] + ends, ends)]

    def json_values(self, part: np.ndarray) -> list:
        """The entries at positions ``part`` as JSON values: the integer,
        or the terms as {str(e): c} in sorted-key order."""
        if self.ends is None:
            return self.values[part].tolist()
        hi = self.ends[part]
        n = hi - np.where(part > 0, self.ends[part - 1], 0)
        at = np.repeat(hi - np.cumsum(n), n) + np.arange(n.sum())
        terms = zip(map(str, self.exps[at].tolist()),
                    self.values[at].tolist())
        return [dict(sorted(itertools.islice(terms, k))) for k in n.tolist()]


def _table_pairs(table, family: str):
    """The reader of every table: the canonical columns of the basis of
    ``table`` (family "kl", or "mu" for their v^1 terms) or its inverse
    columns ("invkl"), built whole first.  ``pairs(whole=False)`` gives
    their nonzero rows as ``_Pairs`` of the stacked terms, which come by
    row, then by exponent, a run of columns at a time or joined into one.
    Every y <= x is a row of b_x, since P_{y,x}(0) = 1, so the mu table
    lists every pair y <= x."""
    columns = table.canonical_blocks(table.basis)
    if family == "invkl":
        columns = table.inverse_columns(table.basis)
    ids = np.array([x.index for x in table.basis])

    def runs():
        # a run's rendered cells take about 100 bytes a term
        for lo, hi in pieces([c.size for c in columns], 16):
            slot, ys, exps, values = stack_terms(columns[lo:hi])
            last = np.flatnonzero((np.diff(slot, append=-1) != 0)
                                  | (np.diff(ys, append=-1) != 0))
            yield _Pairs(*map(narrow, (ys[last], ids[lo + slot[last]],
                                       last + 1, exps)), values)

    def pairs(whole: bool = False):
        got = [_Pairs.join(list(runs()))] if whole else runs()
        return map(_Pairs.mu, got) if family == "mu" else got
    return pairs


def _cmd_table(args, out: _Output) -> int:
    """The one printer of the polynomial and mu tables, over the entries
    of ``_table_pairs``: JSON entries in key order from one ``_Pairs`` of
    the whole table, or csv rows and text lines streamed a run of columns
    at a time.  The text width is taken beforehand from the words of the
    entries; the text lists the nonzero entries only.  A quotient's
    ``meta`` joins the JSON object and the text header, its ``columns``
    each csv row."""
    group = build_group(args.group, args.cap)
    if args.command == "parabolic":
        subset = _subset_parse(args.parabolic, group.matrix.rank)
        table = _parabolic_table(group, subset, args.flavor)
        family, command = args.family, f"parabolic-{args.family}"
        meta = {"flavor": args.flavor, "I": sorted(t + 1 for t in subset),
                "family": family}
        columns = {"flavor": args.flavor, "I": _subset_text(subset)}
    else:
        table, meta, columns = KLTable(group), {}, {}
        family = command = ("mu" if getattr(args, "mu", False)
                            else args.command)
    pairs = _table_pairs(table, family)
    words = [render_word(el.word) for el in group]
    if out.fmt == "json":
        [whole] = pairs(whole=True)
        obj = {"command": command, "group": args.group, "cap": args.cap,
               "entries": _SortedEntries(words, whole.ys, whole.xs,
                                         whole.json_values), **meta}
        # the entries stream in key order, and every other dict is sorted
        out.emit_json(dict(sorted(obj.items())), sort_keys=False)
        return 0
    rows = ((y, x, cell) for p in pairs() for y, x, cell in zip(
        p.ys.tolist(), p.xs.tolist(), p.cells()))
    if out.fmt == "csv":
        length, tail = [el.length for el in group], list(columns.values())
        out.emit_csv(["y", "x", "len_y", "len_x",
                      "mu" if family == "mu" else "poly", *columns],
                     ([words[y], words[x], length[y], length[x], cell, *tail]
                      for y, x, cell in rows))
        return 0
    head = (f"{command}: group {args.group}, "
            f"cap {'full' if args.cap is None else args.cap}"
            + "".join(f", {k} {v}" for k, v in sorted(meta.items())))
    size = np.array([len(w) for w in words])
    # the mu table is unaligned, with two spaces after each pair
    width, gap = (0, "  ") if family == "mu" else (max(
        int((size[p.ys] + size[p.xs]).max()) for p in pairs()) + 4, " ")
    out.emit(itertools.chain([head], (
        f"  {f'({words[y]}, {words[x]})':<{width}}{gap}{cell}"
        for y, x, cell in rows if cell != "0")))
    return 0


def _parabolic_table(group, subset, flavor: str) -> ParabolicKLTable:
    """The table of a quotient, gathered from b when the quotient holds at
    least half of the group's table (|W_I| <= 2 in a finite group), else
    solved.  The gather builds b over about the whole table whatever I is,
    while the solve grows fast with the quotient: on B5 every block takes
    1.7-2.1 s gathered against 14.5-19.4 s solved for I = {1}, and
    0.9-1.7 s against 0.8-1.3 s for I = {1,2} (2-vCPU x86-64, Python
    3.11)."""
    context = ParabolicContext(group, subset, flavor)
    return ParabolicKLTable(context, KLTable(group) if 2 * len(
        context.reps) >= len(group) else None)


def _cmd_rouquier(args, out: _Output) -> int:
    group = build_group(args.group, args.cap)
    table = KLTable(group)
    x = group.element(parse_word(args.element, group.matrix.rank))
    rt = verify.rouquier_multiplicities(table, x)
    rows = [[render_word(y.word), str(i), str(m)] for y, i, m in rt.rows()]
    if out.fmt == "json":
        out.emit_json({
            "command": "rouquier", "group": args.group, "cap": args.cap,
            "x": render_word(x.word),
            "entries": {f"{render_word(y.word)}|{i}": m
                        for y, i, m in rt.rows()},
        })
    elif out.fmt == "csv":
        out.emit_csv(["y", "i", "mult"], rows)
    else:
        lines = [f"rouquier: group {args.group}, x {render_word(x.word)}"]
        lines.extend(f"  y={r[0]} i={r[1]} mult={r[2]}" for r in rows)
        out.emit(lines)
    return 0


_SCANS = {
    "classical": (verify.scan_monotonicity_classical, None),
    "inverse": (verify.scan_monotonicity_inverse, None),
    "antispherical": (verify.scan_monotonicity_antispherical, ANTISPHERICAL),
    "spherical": (verify.scan_monotonicity_spherical, SPHERICAL),
}


def _cmd_scan(args, out: _Output) -> int:
    group = build_group(args.group, args.cap)
    scanner, flavor = _SCANS[args.name]
    subset = _subset_parse(args.parabolic, group.matrix.rank)
    expect = (args.name == "spherical" if args.expect_violations is None
              else args.expect_violations)
    if flavor is None:
        if subset:
            raise CoxeterSpecError(
                f"scan {args.name!r} does not take a parabolic subset")
        table = KLTable(group)
    else:
        table = _parabolic_table(group, subset, flavor)
    res = CheckResult(f"scan-{args.name}", args.group,
                      sorted(t + 1 for t in subset), flavor, args.cap,
                      expected_violations=expect)
    verify.scan_into(res, scanner, table)
    if out.fmt == "json":
        out.emit_json(res.to_json_obj())
    elif out.fmt == "csv":
        out.emit_csv(["z", "y", "x", "lhs", "rhs", "witness_exponent"],
                     ([render_word(v.z.word), render_word(v.y.word),
                       render_word(v.x.word), poly_csv(v.lhs),
                       poly_csv(v.rhs), str(v.witness_exponent)]
                      for v in res.violations))
    else:
        out.emit(res.text_lines())
    return 0 if res.passed else 1


def _cmd_suite(args, out: _Output) -> int:
    group = build_group(args.group, args.cap)
    rank = group.matrix.rank
    if args.parabolic:
        subsets = list(dict.fromkeys(_subset_parse(p, rank)
                                     for p in args.parabolic))
        if frozenset() not in subsets:
            subsets.insert(0, frozenset())
    else:
        subsets = [frozenset()] + [frozenset({t}) for t in range(rank)]
    report = verify.run_identity_suite(
        args.group, subsets, args.cap, group=group,
        keep=None if out.fmt == "json" else 20)
    if out.fmt == "json":
        out.emit_json(report.to_json_obj())
    elif out.fmt == "csv":
        out.emit_csv(
            ["check", "I", "flavor", "checked", "violations", "status"],
            [[c.check, _subset_text([t - 1 for t in c.subset]),
              c.flavor or "-", str(c.pairs_checked), str(len(c.violations)),
              "pass" if c.passed else "fail"] for c in report.checks])
    else:
        out.emit(report.text_lines())
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

_COMMANDS = {"info": _cmd_info, "kl": _cmd_table, "invkl": _cmd_table,
             "parabolic": _cmd_table, "rouquier": _cmd_rouquier,
             "scan": _cmd_scan, "suite": _cmd_suite}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kllab",
        description="Kazhdan-Lusztig, inverse and parabolic polynomial "
                    "tables and theorem scans for Coxeter systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, parabolic=False, flavor=False, threads=False):
        p.add_argument("--group", required=True,
                       help="type string (A3, B2, I2(7), I2(inf), Aff-A1, "
                            "...) or file:PATH")
        p.add_argument("--cap", type=int, default=None,
                       help="length cap; required for infinite groups")
        p.add_argument("--format", choices=["text", "csv", "json"],
                       default="text")
        p.add_argument("--out", default=None, help="write output to a file")
        if parabolic:
            p.add_argument("--parabolic", default="",
                           help="comma-separated 1-based generator indices "
                                "(empty or 'none' for no subset)")
        if flavor:
            p.add_argument("--flavor", required=True,
                           choices=[SPHERICAL, ANTISPHERICAL])
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="accepted and ignored: scans run in one "
                                "thread")

    common(sub.add_parser("info", help="group order and longest length"))
    p = sub.add_parser("kl", help="table of the polynomials h_{y,x}")
    common(p)
    p.add_argument("--mu", action="store_true",
                   help="emit the integer mu table instead of h_{y,x}")
    common(sub.add_parser("invkl", help="table of the inverse polynomials"))

    p = sub.add_parser("parabolic", help="parabolic polynomial tables")
    common(p, parabolic=True, flavor=True)
    p.add_argument("--family", choices=["kl", "invkl"], default="kl")

    p = sub.add_parser("rouquier",
                       help="graded multiplicities of one standard object")
    common(p)
    p.add_argument("--element", required=True,
                   help="comma-separated word, e.g. '1,2,1' ('e' = identity)")

    p = sub.add_parser("scan", help="run one monotonicity scan")
    common(p, parabolic=True, threads=True)
    p.add_argument("--name", required=True, choices=sorted(_SCANS))
    p.add_argument("--expect-violations", dest="expect_violations",
                   action="store_true", default=None,
                   help="violations do not fail the scan "
                        "(default for the spherical scan)")
    p.add_argument("--no-expect-violations", dest="expect_violations",
                   action="store_false")

    p = sub.add_parser("suite", help="all identity checks plus all scans")
    common(p, threads=True)
    p.add_argument("--parabolic", action="append", default=None,
                   help="generator subset to include (repeatable); default "
                        "is the empty subset plus every singleton")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # python -u: a raw write cut short by a closed pipe passes silently
        sys.stdout = open(stdout.fileno(), "w", encoding=stdout.encoding,
                          errors=stdout.errors, closefd=False)
    try:
        return _COMMANDS[args.command](args, _Output(args.format, args.out))
    except (CoxeterSpecError, CapRequiredError, OutputPathError,
            SettingError) as exc:
        _emit_error(exc)
        return 2
    except (CapExceededError, ResourceLimitError, InvariantError,
            FlavorMismatchError) as exc:
        _emit_error(exc)
        return 1
    except BrokenPipeError as exc:
        # the reader closed stdout: the flush at exit goes to the null device
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        _emit_error(exc)
        return 1


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(json.dumps({
        "error": type(exc).__name__, "message": str(exc)},
        indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
