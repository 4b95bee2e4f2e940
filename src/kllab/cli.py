"""
Command-line frontend.

Subcommands: ``info`` (group order and longest length), ``kl`` / ``invkl``
(polynomial tables), ``parabolic`` (the four parabolic families),
``rouquier`` (graded multiplicity table of one standard object), ``scan``
(one named monotonicity scan) and ``suite`` (every identity check plus
every scan).  ``kl``, ``invkl`` and ``parabolic`` print from one generator
over ``kernel.block_terms`` of each column, and ``scan`` fills its check
by ``verify.scan_into``, as the suite does.

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

import numpy as np

from .coxeter import (
    CapExceededError, CoxeterSpecError, ResourceLimitError, SettingError,
    parse_word, render_word,
)
from .hecke import InvariantError, KLTable
from .kernel import block_terms
from .laurent import LaurentPoly
from .parabolic import (
    ANTISPHERICAL, SPHERICAL, FlavorMismatchError, ParabolicContext,
    ParabolicKLTable,
)
from . import verify
from .verify import CapRequiredError, CheckResult, build_group


def poly_csv(p: LaurentPoly) -> str:
    """CSV cell rendering: 'c*v^k' terms joined by '+', ascending exponent."""
    if p.is_zero():
        return "0"
    return "+".join(f"{c}*v^{e}" for e, c in p.items())


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
    """The chosen format and destination; JSON and CSV are streamed."""

    def __init__(self, fmt: str, out_path: str | None):
        self.fmt = fmt
        self.out_path = out_path
        if out_path:  # fail before computing; keep an existing file
            new = not os.path.lexists(out_path)
            self._write("a", lambda fh: None)
            if new:  # and leave no file behind a failed run
                os.remove(out_path)

    def emit(self, text: str) -> None:
        if not text.endswith("\n"):
            text += "\n"
        self._write("w", lambda fh: fh.write(text))

    def emit_json(self, obj, sort_keys: bool = True) -> None:
        chunks = json.JSONEncoder(indent=2,
                                  sort_keys=sort_keys).iterencode(obj)

        def write(fh):      # the encoder's chunks, a few thousand at a time
            while piece := "".join(itertools.islice(chunks, 4096)):
                fh.write(piece)
            fh.write("\n")
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
        if complete:
            out.emit(f"order {order}, longest length {longest}")
        else:
            out.emit(f"order {order} (within length cap {args.cap}), "
                     f"longest length {longest}")
    return 0


class _SortedEntries(dict):
    """The JSON entries "word(y)|word(x)" of the id pairs (ys[k], xs[k]),
    ``values(part)`` giving the values of the pairs at positions ``part``,
    built as an encoder without ``sort_keys`` reaches them in ``items()``.
    They come in the key order ``sort_keys`` gives: no word holds "|", so
    the order of word(y) + "|", then of word(x).  The dict's own storage
    stays empty."""

    def __init__(self, group, ys: np.ndarray, xs: np.ndarray, values):
        self.words = [render_word(el.word) for el in group]
        rank_y, rank_x = (np.argsort(np.argsort(np.array(keys))) for keys in (
            [w + "|" for w in self.words], self.words))
        self.order = np.lexsort((rank_x[xs], rank_y[ys]))
        self.ys, self.xs, self.values = ys, xs, values

    def __len__(self) -> int:
        return len(self.order)

    def items(self):
        words = self.words
        for lo in range(0, len(self.order), 1024):
            part = self.order[lo:lo + 1024]
            yield from zip([f"{words[y]}|{words[x]}" for y, x in zip(
                self.ys[part].tolist(), self.xs[part].tolist())],
                self.values(part))


def _table_entries(group, triples, fmt: str, cell=poly_csv):
    """Shared rendering for the text and csv tables: streamed csv rows, or
    a list of (y, x, entry) text rows to align; each element's word is
    rendered once."""
    words = [render_word(el.word) for el in group]
    if fmt == "csv":
        return ([words[y.index], words[x.index], str(y.length),
                 str(x.length), cell(p)] for y, x, p in triples)
    return [(words[y.index], words[x.index], cell(p)) for y, x, p in triples]


def _emit_table(args, out: _Output, command: str, entries,
                extra_cols: list[str] | None = None,
                extra_vals: list[str] | None = None,
                meta: dict | None = None) -> int:
    if out.fmt == "json":
        obj = {"command": command, "group": args.group, "cap": args.cap,
               "entries": entries}
        obj.update(meta or {})
        # the entries stream in key order, and every other dict is sorted
        out.emit_json(dict(sorted(obj.items())), sort_keys=False)
    elif out.fmt == "csv":
        out.emit_csv(["y", "x", "len_y", "len_x", "poly"] + (extra_cols or []),
                     (row + (extra_vals or []) for row in entries))
    else:
        lines = [f"{command}: group {args.group}, "
                 f"cap {'full' if args.cap is None else args.cap}"]
        if meta:
            lines[0] += "".join(f", {k} {v}" for k, v in sorted(meta.items()))
        width = max((len(r[0]) + len(r[1]) for r in entries), default=0) + 4
        for row in entries:
            pair = f"({row[0]}, {row[1]})"
            lines.append(f"  {pair:<{width}} {row[2]}")
        out.emit("\n".join(lines))
    return 0


def _column_entries(table, inverse: bool, fmt: str):
    """The entries of the nonzero rows y of the canonical or the inverse
    column of each basis element x of the table, in the form ``fmt``
    prints, each table built whole before the output streams."""
    group = table.group
    table.canonical_blocks(table.basis)
    if inverse:
        table.inverse_columns(table.basis)
    column = table.inverse_column if inverse else table.canonical_block
    if fmt == "json":
        rows = [r[np.diff(r, prepend=-1) != 0]    # terms() come by row
                for r in (column(x).terms()[0] for x in table.basis)]
        ys, xs = np.concatenate(rows), np.repeat(
            [x.index for x in table.basis], [len(r) for r in rows])
        poly, el = (table.inverse_kl_poly if inverse else table.kl_poly,
                    group.elements)
        return _SortedEntries(group, ys, xs, lambda part: [
            dict(sorted(poly(el[y], el[x]).to_json_dict().items()))
            for y, x in zip(ys[part].tolist(), xs[part].tolist())])
    return _table_entries(group, ((y, x, p) for x in table.basis
                                  for y, p in block_terms(
                                      group, column(x)).items()), fmt)


def _cmd_kl(args, out: _Output, inverse: bool) -> int:
    group = build_group(args.group, args.cap)
    table = KLTable(group)
    if not inverse and args.mu:
        return _cmd_mu(args, out, table)
    return _emit_table(args, out, "invkl" if inverse else "kl",
                       _column_entries(table, inverse, out.fmt))


def _cmd_mu(args, out: _Output, table: KLTable) -> int:
    group = table.group
    table.canonical_blocks(group)

    def mus():
        for x in group:
            # mu(y, x) is the v^1 term of row y of b_x, nonnegative once built
            block = table.canonical_block(x)
            one = block.exps == 1
            mu = dict(zip(block.ids[one].tolist(),
                          block.values[one].tolist()))
            for y in group.downset(x):
                m = mu.get(y.index, 0)
                if m or out.fmt != "text":  # text lists the nonzero mu only
                    yield y, x, m

    if out.fmt == "json":       # every pair y <= x, in the order mus() gives
        ids = [group.downset_ids(x) for x in group]
        mu = np.fromiter((m for _, _, m in mus()), object)
        out.emit_json({"cap": args.cap, "command": "mu", "entries": (
            _SortedEntries(group, np.concatenate(ids), np.repeat(
                np.arange(len(group)), [len(i) for i in ids]),
                lambda part: mu[part].tolist())), "group": args.group},
            sort_keys=False)
        return 0
    entries = _table_entries(group, mus(), out.fmt, str)
    if out.fmt == "csv":
        out.emit_csv(["y", "x", "len_y", "len_x", "mu"], entries)
    else:
        lines = [f"mu: group {args.group}, "
                 f"cap {'full' if args.cap is None else args.cap}"]
        lines.extend(f"  ({r[0]}, {r[1]})  {r[2]}" for r in entries)
        out.emit("\n".join(lines))
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


def _cmd_parabolic(args, out: _Output) -> int:
    group = build_group(args.group, args.cap)
    subset = _subset_parse(args.parabolic, group.matrix.rank)
    table = _parabolic_table(group, subset, args.flavor)
    subset_text = _subset_text(subset)
    return _emit_table(
        args, out, f"parabolic-{args.family}",
        _column_entries(table, args.family == "invkl", out.fmt),
        extra_cols=["flavor", "I"], extra_vals=[args.flavor, subset_text],
        meta={"flavor": args.flavor, "I": sorted(t + 1 for t in subset),
              "family": args.family})


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
        out.emit("\n".join(lines))
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
    expect = args.expect_violations
    if expect is None:
        expect = args.name == "spherical"
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
        out.emit("\n".join(res.text_lines()))
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
        out.emit("\n".join(report.text_lines()))
    return 0 if report.passed else 1


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

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
        out = _Output(args.format, args.out)
        if args.command == "info":
            return _cmd_info(args, out)
        if args.command == "kl":
            return _cmd_kl(args, out, inverse=False)
        if args.command == "invkl":
            return _cmd_kl(args, out, inverse=True)
        if args.command == "parabolic":
            return _cmd_parabolic(args, out)
        if args.command == "rouquier":
            return _cmd_rouquier(args, out)
        if args.command == "scan":
            return _cmd_scan(args, out)
        if args.command == "suite":
            return _cmd_suite(args, out)
        raise AssertionError(f"unhandled command {args.command}")
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
