"""
Theorem-checking harness: monotonicity scans, standard-complex multiplicity
tables, and batched identity suites.

All four monotonicity scans use the same normalised comparison: for a
Bruhat triple z <= y <= x the polynomial attached to the shorter interval
is shifted up by the length gap and must sit coefficient-wise below the
polynomial attached to the longer one,

    classical        v^{l(y)-l(z)} h_{y,x}  <=  h_{z,x}
    inverse          v^{l(x)-l(y)} h^{z,y}  <=  h^{z,x}
    antispherical    v^{l(x)-l(y)} n^{z,y}  <=  n^{z,x}
    spherical        v^{l(x)-l(y)} m^{z,y}  <=  m^{z,x}   (expected to fail)

The first three are theorems and their scans must come back empty; the
spherical family genuinely violates the inequality, and when the quotient
is the chain arising from a type-A group modulo a type-A wall (I = all
nodes but one path endpoint), every consecutive chain triple must appear
among the violations.

A scan decides every triple, but the three theorem scans compare only the
cover triples unless one fails.  Intervals of W and of ^I W are graded
(Bjorner-Brenti, Combinatorics of Coxeter Groups, Thms. 2.2.6 and 2.5.5),
so a chain of covers joins y to x (z to y, classically), and an
inequality that holds on every cover triple holds on every triple, once
the inverse columns have their true rows (``ColumnTable.columns_hold``).
The triple count a scan reports, ``checked=``, is the number of triples
decided.  The classical cover triples are a call of the triple kernel,
``_scan_triples``, with the covers of each y as its zs.  A failing cover
triple or rule, or an InvariantError, runs the kernel on all triples,
which finds and words the violations or the error; the spherical scan
always runs it, as its violations are listed.  In the kernel a triple is
a pair of rows of an aligned coefficient store, compared slot by slot, in
pieces of about ``CELL_BUDGET`` cells.
Triples go by x in id order (length, then ShortLex), then y, then z, so
reports are deterministic and diffable.  The scans run in one thread: a
thread pool made them slower.  A scan returns its violations as a
``ViolationRecord``: the ids of each failing triple and its witness
exponent, a few bytes each, whose two sides are read from the family's
tables by the inequality above only when a ``Violation`` is built, so a
spherical scan may find millions of violations while a text report
renders 20 per check and JSON streams.  ``scan_into`` fills a scan
check for ``kllab scan`` and the suite alike, and the suite's four row
checks are one helper over ``terms()`` arrays.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .coxeter import (
    CoxeterMatrix, Element, GroupTable, parse_coxeter_spec, render_word,
)
from .hecke import InvariantError, KLTable, certified
from .kernel import block_terms, chunks, pieces, row_poly, stack_terms
from .laurent import LaurentPoly
from .parabolic import (
    ANTISPHERICAL, SPHERICAL, FlavorMismatchError, ParabolicContext,
    ParabolicKLTable, check_soergel_identification,
)


class CapRequiredError(ValueError):
    """An infinite group was requested without a length cap, or the cap
    given is negative."""


def build_group(spec: str, cap: int | None = None) -> GroupTable:
    """Group table from a spec string, demanding a cap for infinite groups."""
    if cap is not None and cap < 0:
        raise CapRequiredError(f"length cap must be >= 0, got {cap}")
    matrix = parse_coxeter_spec(spec)
    if cap is None and not matrix.is_finite():
        raise CapRequiredError(
            f"group {spec!r} is infinite: a length cap is required")
    return GroupTable(matrix, cap)


# ----------------------------------------------------------------------
# violations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """A Bruhat triple z <= y <= x where the shifted comparison fails."""

    z: Element
    y: Element
    x: Element
    lhs: LaurentPoly
    rhs: LaurentPoly
    witness_exponent: int

    def to_json_obj(self) -> dict:
        return {
            "z": render_word(self.z.word),
            "y": render_word(self.y.word),
            "x": render_word(self.x.word),
            "lhs": self.lhs.to_json_dict(),
            "rhs": self.rhs.to_json_dict(),
            "witness_exponent": self.witness_exponent,
        }

    def text(self) -> str:
        return (f"z={render_word(self.z.word)} y={render_word(self.y.word)} "
                f"x={render_word(self.x.word)} lhs={self.lhs} rhs={self.rhs} "
                f"witness_exponent={self.witness_exponent}")


class ViolationRecord(Sequence):
    """The violations of a scan, in scan order, held as integer arrays.

    Each part is (arrays, sides).  The arrays give, per violation, the
    ids of z, y and x and the witness exponent, each in the narrowest
    dtype that holds it; ``sides(z, y, x)`` gives its (lhs, rhs), read
    from the tables the scan compared.  An item is a ``Violation``, built
    when it is read and not kept, so the record is read-only and a report
    that renders 20 violations builds 20.
    """

    def __init__(self, elements=(), parts=()):
        self._elements, self._parts = elements, list(parts)
        self._ends = list(itertools.accumulate(
            len(arrays[0]) for arrays, _ in self._parts))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        k = operator.index(i)
        k += len(self) if k < 0 else 0
        if not 0 <= k < len(self):
            raise IndexError("violation index out of range")
        p = bisect.bisect_right(self._ends, k)
        arrays, sides = self._parts[p]
        k -= self._ends[p] - len(arrays[0])
        return self._build(sides, *(int(a[k]) for a in arrays))

    def __iter__(self):
        for arrays, sides in self._parts:
            for k in range(0, len(arrays[0]), 4096):
                for row in zip(*(a[k:k + 4096].tolist() for a in arrays)):
                    yield self._build(sides, *row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, tuple, ViolationRecord)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def _build(self, sides, z, y, x, exp) -> Violation:
        elements = self._elements
        return Violation(elements[z], elements[y], elements[x],
                         *sides(z, y, x), exp)

    def has_triple(self, z: Element, y: Element, x: Element) -> bool:
        """Whether (z, y, x) is a violation, read off the id arrays."""
        return any(((a[0] == z.index) & (a[1] == y.index)
                    & (a[2] == x.index)).any() for a, _ in self._parts)


class _Shown(list):
    """The first violations of a record, built, under the record's length:
    what a text or csv report reads of a scan check, holding none of the
    tables the scan read."""

    def __init__(self, record: ViolationRecord, n: int):
        super().__init__(record[:n])
        self.total = len(record)

    def __len__(self) -> int:
        return self.total


def _narrow(a: np.ndarray) -> np.ndarray:
    """``a`` in the narrowest integer dtype that holds its values."""
    lo, hi = int(a.min()), int(a.max())
    return a.astype(np.min_scalar_type(min(lo, -1 - hi) if lo < 0 else hi))


# ----------------------------------------------------------------------
# monotonicity scans
# ----------------------------------------------------------------------

def scan_monotonicity_inverse(table: KLTable) -> tuple[int, ViolationRecord]:
    """All triples violating the inverse-polynomial monotonicity.

    Returns (triples_checked, violations); the theorem predicts an empty
    record for every Coxeter system.  The regular module is the quotient
    with I empty, where the flavors agree.
    """
    return _scan_parabolic(table, ANTISPHERICAL)


def scan_monotonicity_classical(table: KLTable
                                ) -> tuple[int, ViolationRecord]:
    """All triples violating classical monotonicity of h_{y,x}.

    Decided by the triple kernel on the cover triples z < y <= x, z of
    length l(y) - 1, and on all triples if one fails.  It compares b_x
    made dense on downset(x) for a run of xs, in the blocks' own dtype:
    each term of b_x is written to its one cell, row z at slot e + l(z),
    so that v^{l(y)-l(z)} h_{y,x} lines up with h_{z,x}.  A term at
    e < 0, off downset(x) or with e + l(z) > l(x) raises InvariantError.
    Only the b blocks are built, all of them first; a violation reads its
    two sides from them.
    """
    group, el = table.group, table.group.elements
    table.canonical_blocks(group)

    def dense(batch):
        chunk = batch.xs
        slot, z, e, values = stack_terms(table.canonical_blocks(chunk))
        pos, at = batch.locate(slot, z), e + group.lengths[z]
        off = (pos < 0) | (e < 0) | (at > np.array(
            [x.length for x in chunk])[slot])
        if off.any():
            x = chunk[slot[off.argmax()]]
            raise InvariantError(f"the block of {x!r} has a term outside "
                                 f"the rows of {x!r}")
        store = np.zeros((len(batch.ids), chunk[-1].length + 1), values.dtype)
        store[pos, at] = values
        return store
    xs, rows = list(group), [group.downset_ids(x) for x in group]

    def scan(zs=None):
        return _scan_triples(group, xs, rows, lambda z, y, x: (
            table.kl_poly(el[y], el[x]).shift(el[y].length - el[z].length),
            table.kl_poly(el[z], el[x])), dense=dense, zs=zs)
    # the covers of y: the ids of downset(y) at length l(y) - 1
    covers = [ids[np.searchsorted(group.lengths[ids], y.length - 1):-1]
              for y, ids in zip(group, rows)]
    return _decided(group, xs, rows, lambda: not scan(covers)[1], scan)


def _decided(group, xs, rows, holds, full) -> tuple[int, ViolationRecord]:
    """A theorem scan decided on its cover triples.  When ``holds()``
    finds that every cover triple holds, every triple holds, since the
    intervals of W and ^I W are graded: the scan is the count of all
    triples, from the row counts, and an empty record.  A failing cover
    triple or trust rule, or an InvariantError, runs ``full()``, the
    triple kernel, whose record or error is the scan's."""
    try:
        clean = holds()
    except InvariantError:
        clean = False
    if not clean:
        return full()
    size = np.zeros(len(group), np.int64)
    size[[x.index for x in xs]] = [len(r) for r in rows]
    return sum(int(size[r].sum()) for r in rows), ViolationRecord()


def _inverse_covers_hold(group, xs, col) -> bool:
    """Whether v h^{z,y} <= h^{z,x} for every x of ``xs``, every cover
    y of x (a row of its column at length l(x) - 1) and every row z of
    the column of y: the cover triples, as the stored columns ``col``
    have their true rows (``ColumnTable.columns_hold``).  They are read
    a chunk of xs of one length at a time, the chunk's columns stacked
    and its covers' rows in pieces."""
    lengths = group.lengths
    for top, level in itertools.groupby(xs, operator.attrgetter("length")):
        for batch in chunks(level, lambda x: col[x.index].rows,
                            lambda x: col[x.index].coeffs.shape[1]):
            hx = np.concatenate([col[x.index].coeffs for x in batch.xs])
            pair = np.flatnonzero(lengths[batch.ids] == top - 1)
            covers = [col[y] for y in batch.ids[pair].tolist()]
            m = [len(c.rows) for c in covers]
            for a, b in pieces(m, hx.shape[1] + 8):
                part = covers[a:b]
                h = hx.take(batch.locate(
                    np.repeat(batch.slot[pair[a:b]], m[a:b]),
                    np.concatenate([c.rows for c in part])), 0)
                if (h[:, 0] < 0).any() or np.less(h[:, 1:], np.concatenate(
                        [c.coeffs for c in part])).any():
                    return False
    return True


def _scan_triples(group, xs, rows, sides, coeffs=None, dense=None,
                  zs=None):
    """(count, ViolationRecord) of a monotonicity scan: the triple kernel.

    The triples are (x, y, z), x in ``xs``, y in the sorted ``rows`` of x
    and z in ``zs`` of y (each list in the order of ``xs``; by default the
    rows of y), in that order.  Each compares two rows of an aligned store
    slot by slot and fails where the row of z in x (hi) is below the other
    (lo).  Given the ``coeffs`` of xs, the store holds them end to end,
    right-aligned, and lo is the row of z in y.  Given ``dense`` (the
    classical scan), ``dense(batch)`` is the store of a run of xs over the
    rows of their ``Batch``, row z from slot l(z), and lo is the row of y
    in x.  Runs of xs (``chunks``) keep their ``Batch`` and pair arrays,
    and pieces of their triples (``pieces``) their index arrays and rows,
    within about CELL_BUDGET cells.  A z that is no row of x raises
    InvariantError.  The violations of a run of xs become one part of the
    record: the ids of z, y and x and the witness, the first failing slot
    less the slot of exponent 0, with ``sides(z, y, x)`` to read the two
    sides of the family's inequality.
    """
    elements, lengths = group.elements, group.lengths
    size = np.array([len(r) for r in rows])
    first = np.cumsum(size) - size
    index = np.zeros(len(elements), np.intp)
    index[[x.index for x in xs]] = np.arange(len(xs))
    zs = rows if zs is None else zs
    m_of = np.array([len(z) for z in zs])
    z0 = np.cumsum(m_of) - m_of
    ids = np.concatenate(zs, dtype=np.min_scalar_type(len(elements)),
                         casting="unsafe")
    if dense is None:
        widths = np.array([c.shape[1] for c in coeffs])
        store = np.zeros((len(ids), int(widths.max())),
                         np.result_type(*[c.dtype for c in coeffs]))
        for c, f, w in zip(coeffs, first.tolist(), widths.tolist()):
            store[f:f + len(c), store.shape[1] - w:] = c
    count, parts = 0, []
    for batch in chunks(xs, lambda x: rows[index[x.index]], lambda x: 32 + (
            0 if dense is None else x.length + 1)):
        chunk = batch.xs
        c0 = int(index[chunk[0].index])
        row0, store = ((int(first[c0]), store) if dense is None
                       else (0, dense(batch)))
        ys, slot, found = batch.ids, batch.slot, []
        xid = np.array([x.index for x in chunk])
        m = m_of[index[ys]]
        start = np.concatenate(([0], np.cumsum(m)))
        count += int(start[-1])
        # per pair (x, y): its first z in ids less its first triple
        skip = z0[index[ys]] - start[:-1]
        for a, b in pieces(m, store.shape[1] + 8):
            q = np.repeat(np.arange(a, b), m[a:b])      # each triple's pair
            zidx = skip[q] + np.arange(int(start[a]), int(start[b]))
            z = ids.take(zidx)
            hi = batch.locate(slot[q], z)
            if hi.min(initial=0) < 0:
                t = int(np.argmax(hi < 0))
                raise InvariantError("scan triple {0!r} <= {1!r} <= {2!r}: "
                                     "{0!r} is no row of the column of {2!r}"
                                     .format(elements[z[t]],
                                             elements[ys[q[t]]],
                                             chunk[slot[q[t]]]))
            lo = zidx if dense is None else q
            bad = np.less(store.take(hi + row0, 0), store.take(lo, 0))
            if not bad.any():
                continue
            # the first failing slot of each failing triple t
            t, slots = np.divmod(np.flatnonzero(bad), store.shape[1])
            new = np.flatnonzero(np.diff(t, prepend=-1))
            t, slots = t[new], slots[new]
            z, y, x = z[t], ys[q[t]], xid[slot[q[t]]]
            zero = (store.shape[1] - 1 - lengths[x] if dense is None
                    else lengths[z])
            found.append((z, y, x, slots - zero))
        if found:
            parts.append((tuple(_narrow(np.concatenate(a))
                                for a in zip(*found)), sides))
    return count, ViolationRecord(elements, parts)


def _scan_parabolic(table, flavor: str) -> tuple[int, ViolationRecord]:
    """The scan over the inverse columns of the whole basis of a table of
    the flavor's module, built first: decided on the cover triples, but
    for the spherical flavor, whose violations are listed by the triple
    kernel.  A violation reads row z of the columns of y and x, the first
    shifted by l(x) - l(y); the kernel has checked that z is a row of
    both."""
    ctx = table.context
    if ctx.flavor != flavor and ctx.subset:     # I empty: one module
        raise FlavorMismatchError(
            f"scan needs a {flavor} table, got {ctx.flavor}")
    table.build_all()
    group, xs = table.group, list(table.basis)
    col = {x.index: table.inverse_column(x) for x in xs}
    rows, el = [c.rows for c in col.values()], group.elements

    def row(z, c):
        return row_poly(c.coeffs[c.rows.searchsorted(z)])

    def full():
        return _scan_triples(group, xs, rows, lambda z, y, x: (
            row(z, col[y]).shift(el[x].length - el[y].length),
            row(z, col[x])), [c.coeffs for c in col.values()])
    if flavor == SPHERICAL:
        return full()
    return _decided(group, xs, rows, lambda: table.columns_hold()
                    and _inverse_covers_hold(group, xs, col), full)


def scan_monotonicity_antispherical(ptable: ParabolicKLTable):
    """Monotonicity over the antispherical quotient; expected empty."""
    return _scan_parabolic(ptable, ANTISPHERICAL)


def scan_monotonicity_spherical(ptable: ParabolicKLTable):
    """Monotonicity over the spherical quotient.

    Violations are genuine and expected; on a type-A chain quotient every
    consecutive triple must show up.
    """
    return _scan_parabolic(ptable, SPHERICAL)


# ----------------------------------------------------------------------
# spherical counterexample bookkeeping
# ----------------------------------------------------------------------

def chain_triples(ctx: ParabolicContext) -> list[tuple] | None:
    """Consecutive triples of the quotient when its Bruhat order is a chain.

    Returns None when the quotient is not totally ordered.  Distinct
    same-length elements are never comparable, so a chain forces one
    representative per length; comparability of consecutive lengths then
    gives the total order.
    """
    reps = ctx.reps
    if len({r.length for r in reps}) != len(reps) or not all(
            ctx.group.bruhat_leq(a, b) for a, b in zip(reps, reps[1:])):
        return None
    return list(zip(reps, reps[1:], reps[2:]))


def is_type_a_wall_quotient(matrix: CoxeterMatrix, subset) -> bool:
    """True when the diagram is a type-A path and I omits one endpoint.

    Exactly the shape for which the spherical quotient is a chain whose
    every consecutive triple violates monotonicity; the suite treats those
    violations as mandatory.
    """
    rank = matrix.rank
    orders = {(i, j): matrix.order(i, j) for i in range(rank)
              for j in range(rank) if i != j}
    bonds = [[j for j in range(rank) if orders.get((i, j)) == 3]
             for i in range(rank)]
    omitted = set(range(rank)) - set(subset)
    # rank - 1 simple bonds, none of degree 3, connected: a path
    if (rank < 2 or len(omitted) != 1 or set(orders.values()) - {2, 3}
            or sum(map(len, bonds)) != 2 * (rank - 1)
            or max(map(len, bonds)) > 2):
        return False
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [w for u in frontier for w in bonds[u]
                    if w not in seen and not seen.add(w)]
    return len(seen) == rank and len(bonds[omitted.pop()]) == 1


# ----------------------------------------------------------------------
# standard-complex multiplicity tables
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RouquierTable:
    """Graded multiplicities of the minimal complex of the standard object
    attached to x: entry (y, i) is the multiplicity in cohomological
    degree i, and row y regenerates h^{y,x}."""

    x: Element
    mult: dict[tuple[Element, int], int]

    def rows(self) -> list[tuple[Element, int, int]]:
        return sorted(((y, i, m) for (y, i), m in self.mult.items()),
                      key=lambda r: (r[0].index, r[1]))

    def generating_poly(self, y: Element) -> LaurentPoly:
        return LaurentPoly({i: m for (z, i), m in self.mult.items() if z == y})


def rouquier_multiplicities(table: KLTable, x: Element) -> RouquierTable:
    """Multiplicity table read off the inverse polynomial column of x.

    The degree placement is forced by parity: h^{y,x} only has exponents
    congruent to l(x) - l(y) mod 2, and that is re-asserted here; a
    failure would mean a computation bug upstream.
    """
    col = table.inverse_column(x)
    _check_multiplicities(x, *col.terms())
    return RouquierTable(x=x, mult={(y, e): c for y, h in block_terms(
        table.group, col).items() for e, c in h.items()})


def _wrong_parity(x: Element, rows: np.ndarray, exps: np.ndarray
                  ) -> np.ndarray:
    """Which terms (row id, exponent) of a column of x have an exponent
    not congruent to l(x) - l(y) mod 2, y the term's row."""
    return (x.length - x.group.lengths[rows] + exps) % 2 == 1


def _check_multiplicities(x: Element, rows, exps, values) -> None:
    """Raise at the first term of the column of x, by row id then
    exponent, with an exponent of the wrong parity or a negative value."""
    wrong = _wrong_parity(x, rows, exps)
    bad = np.flatnonzero(wrong | (values < 0))
    if len(bad):
        k = bad[0]
        y, exp = x.group.elements[rows[k]], int(exps[k])
        if wrong[k]:
            raise InvariantError(
                f"parity-support failure at ({y!r},{x!r}) exponent {exp}")
        raise InvariantError(f"negative multiplicity at ({y!r},{x!r},{exp})")


def rouquier_shadows(table: KLTable, xs):
    """Grothendieck check for each x of ``xs`` in order: whether the
    alternating sum re-expands to delta_x.

    Checks the multiplicities of x first, as ``rouquier_multiplicities``
    does.  With the parities right, (-1)^i = (-1)^{l(x)-l(y)} for each
    m^i_y, so the alternating sum of the m^i_y v^i b_y is delta_x exactly
    when the inversion identity holds the other way round: the table's
    shadow pass (``ColumnTable.shadow_failures``).
    """
    shadows = table.shadow_failures(xs)
    for x in xs:
        try:
            failing = next(shadows)
        finally:
            _check_multiplicities(x, *table.inverse_column(x).terms())
        yield not failing


# ----------------------------------------------------------------------
# the batched suite
# ----------------------------------------------------------------------

class _JSONList(list):
    """The JSON objects of a sequence's items, each built as an iterating
    reader (``JSONEncoder.iterencode``) reaches it and then dropped.  The
    list itself holds nothing: readers through ``len`` and ``iter`` see
    the items and ``==`` compares them, but a reader of list storage,
    such as the unindented one-shot ``json.dumps``, sees ``[]``."""

    def __init__(self, items):      # the list's own storage stays empty
        self.items = items

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return (item.to_json_obj() for item in self.items)

    def __eq__(self, other) -> bool:
        return list(self) == other


@dataclass
class CheckResult:
    """One suite check.  ``violations`` is the record of a scan check (an
    empty record otherwise), or its first violations (``_Shown``); the
    text report builds at most 20 of its violations, the JSON report
    every one, one at a time."""

    check: str
    group: str
    subset: list[int] = field(default_factory=list)  # 1-based for reporting
    flavor: str | None = None
    cap: int | None = None
    pairs_checked: int = 0
    passed: bool = True
    expected_violations: bool = False
    violations: ViolationRecord = field(default_factory=ViolationRecord)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        """Every field, the subset as "I" and each violation as JSON, the
        violations as a ``_JSONList`` that the indented encoder streams."""
        return {**{k: v for k, v in vars(self).items() if k != "subset"},
                "I": self.subset, "violations": _JSONList(self.violations)}

    def text_lines(self) -> list[str]:
        extra = (["I={" + ",".join(map(str, self.subset)) + "}"]
                 if self.subset else [])
        extra += [self.flavor] if self.flavor else []
        label = self.check + (" [" + " ".join(extra) + "]" if extra else "")
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {label}: checked={self.pairs_checked}"
        if self.violations:
            line += f" violations={len(self.violations)}"
            if self.expected_violations:
                line += " (expected)"
        lines = [line]
        lines.extend("    " + v.text() for v in self.violations[:20])
        if len(self.violations) > 20:
            lines.append(f"    ... {len(self.violations) - 20} more")
        lines.extend("    " + f for f in self.failures[:5])
        lines.extend("    note: " + n for n in self.notes)
        return lines


@dataclass
class SuiteReport:
    group: str
    cap: int | None
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return {"group": self.group, "cap": self.cap, "passed": self.passed,
                "checks": [c.to_json_obj() for c in self.checks]}

    def text_lines(self) -> list[str]:
        cap = "full" if self.cap is None else str(self.cap)
        lines = [f"suite: group {self.group}, cap {cap}"]
        for c in self.checks:
            lines.extend(c.text_lines())
        lines.append(f"suite result: {'PASS' if self.passed else 'FAIL'}")
        return lines


def scan_into(res: CheckResult, scanner, table) -> None:
    """Fill the scan check ``res`` from ``scanner(table)``: the count, the
    violations, a failure on violations it does not expect, and for an
    expected-violation spherical scan the mandate."""
    res.pairs_checked, res.violations = scanner(table)
    if res.violations and not res.expected_violations:
        res.passed = False
    if res.check == "scan-spherical" and res.expected_violations:
        evaluate_spherical_mandate(res, table.context)


def run_identity_suite(spec: str, subsets=((),), cap: int | None = None,
                       group: GroupTable | None = None,
                       keep: int | None = None) -> SuiteReport:
    """Run every identity check and every scan over one group.

    ``subsets`` lists the generator subsets (0-based) for the parabolic
    checks; the non-parabolic checks always run.  ``group``, when given,
    is the already enumerated table of ``spec`` under ``cap``.  Given
    ``keep``, a scan check keeps only its first ``keep`` violations and
    its count (``_Shown``).  Any internal error is captured as a failed
    check rather than propagating.
    """
    if group is None:
        group = build_group(spec, cap)
    table = KLTable(group)      # built by the first check, inside its capture
    # the regular module is the quotient with I empty, whose table solves
    # for the one bar-invariant delta_x + vZ[v] lower terms from the blocks
    # of bar(delta_z) alone: b_x is bar-invariant iff its terms are those.
    # That oracle is made only when the regular table's certificate fails
    oracle = []
    report = SuiteReport(group=spec, cap=cap)
    subsets = [frozenset(s) for s in subsets]
    scans = weakref.WeakKeyDictionary()     # table -> its column scan
    reuse = {}

    def scanned(scanner):
        return lambda t: scans.get(t) or scans.setdefault(t, scanner(t))

    def run(result: CheckResult, body) -> None:
        try:
            body(result)
        except Exception as exc:  # pragma: no cover - defensive capture
            result.passed = False
            result.failures.append(f"error: {type(exc).__name__}: {exc}")
        if keep is not None and result.violations:
            result.violations = _Shown(result.violations, keep)
        report.checks.append(result)

    def term_rows(res, column, failing, poly, message):
        """One pair per y <= x; each row of the column of x with a failing
        term, in id order, decoded by ``poly``."""
        for x in group:
            res.pairs_checked += len(group.downset_ids(x))
            rows, exps, values = column(x).terms()
            for y in dict.fromkeys(rows[failing(x, rows, exps, values)]
                                   .tolist()):
                y = group.elements[y]
                res.passed = False
                res.failures.append(message(y, x, poly(y, x)))

    def bar_invariance(res):
        """Each b_x is the oracle's solve: at once if the certificate
        holds, else compared block by block."""
        flags = itertools.repeat(True)
        if not certified(table):
            oracle.append(ParabolicKLTable(ParabolicContext(
                group, (), ANTISPHERICAL)))
            flags = (all(map(np.array_equal, table.canonical_block(x).terms(),
                             b.terms())) for x, b in zip(
                group, oracle[0].canonical_blocks(group.elements)))
        per_element(res, flags, lambda x: f"bar(b) != b at {x!r}")

    def quotient(subset, flavor):
        """The table of a quotient that the checks read: gathered from b,
        built and certified, or else one that solves."""
        gathered = ParabolicKLTable(ParabolicContext(group, subset, flavor),
                                    table)
        if gathered.b is None:
            return gathered
        try:
            gathered.build_all()
            if certified(gathered):
                return gathered
        except Exception:       # the solve's checks word the error
            pass
        return ParabolicKLTable(ParabolicContext(group, subset, flavor))

    def per_element(res, flags, message):
        """One pair per x, counted before its batched check."""
        for x in group:
            res.pairs_checked += 1
            if not next(flags):
                res.passed = False
                res.failures.append(message(x))

    def inversion(res, ptable, message):
        """One pair per row of each column of a table of any module, by
        ``inversion_holds``, which checks the stored rows, or else the
        Kronecker sums, a column's checked with its first pair."""
        holds = ptable.inversion_holds()
        sums = (itertools.repeat(()) if holds
                else ptable.inversion_failures(ptable.basis))
        for x in ptable.basis:
            res.pairs_checked += 1
            failures = next(sums)
            res.pairs_checked += len(ptable.inverse_column(x).rows if holds
                                     else ptable.column_ids(x)) - 1
            for y in sorted(failures):
                res.passed = False
                res.failures.append(message(group.elements[y], x))

    for name, body in [
        ("positivity-kl", lambda res: table.build_all() or term_rows(
            res, table.canonical_block, lambda x, y, e, c: (c < 0) | (e < 0),
            table.kl_poly, lambda y, x, h: f"h at ({y!r},{x!r}) = {h}")),
        ("positivity-invkl", lambda res: term_rows(
            res, table.inverse_column, lambda x, y, e, c: c < 0,
            table.inverse_kl_poly,
            lambda y, x, h: f"h^ at ({y!r},{x!r}) = {h}")),
        ("mu-nonnegative", lambda res: term_rows(
            res, table.canonical_block, lambda x, y, e, c: (c < 0) & (e == 1),
            table.kl_poly, lambda y, x, h: f"mu({y!r},{x!r}) < 0")),
        ("parity", lambda res: term_rows(
            res, table.inverse_column,
            lambda x, y, e, c: _wrong_parity(x, y, e), table.inverse_kl_poly,
            lambda y, x, h: f"parity at ({y!r},{x!r})")),
        ("bar-invariance", bar_invariance),
        ("inversion-identity", lambda res: inversion(
            res, table, lambda y, x: f"inversion sum at ({y!r},{x!r})")),
        ("rouquier-shadow", lambda res: per_element(
            res, rouquier_shadows(table, group),
            lambda x: f"shadow at {x!r}")),
        ("scan-classical", lambda res: scan_into(
            res, scan_monotonicity_classical, table)),
        ("scan-inverse", lambda res: scan_into(
            res, scanned(scan_monotonicity_inverse), table)),
    ]:
        run(CheckResult(name, spec, cap=cap), body)
        if name == "bar-invariance":
            # I empty is the regular module: if each b block equals the
            # oracle's, the table serves it, else the oracle does, which is
            # released here or after that subset's checks
            if frozenset() in subsets:
                reuse[frozenset()] = (table if report.checks[-1].passed
                                      else oracle[0])
            oracle.clear()

    def quotient_checks(subset, anti):
        one_based = sorted(t + 1 for t in subset)
        # with I empty both flavors are the regular module: one table
        sph = quotient(subset, SPHERICAL) if subset else anti

        def soergel(res):
            mismatches = check_soergel_identification(anti, table)
            res.pairs_checked = len(anti.context.reps) ** 2
            for z, x, n, h in mismatches:
                res.passed = False
                res.failures.append(
                    f"n^/h^ differ at ({render_word(z.word)},"
                    f"{render_word(x.word)}): {n} vs {h}")

        run(CheckResult("soergel-identification", spec, one_based,
                        ANTISPHERICAL, cap), soergel)
        for flavor, ptable in ((ANTISPHERICAL, anti), (SPHERICAL, sph)):
            run(CheckResult("parabolic-inversion-identity", spec, one_based,
                            flavor, cap),
                lambda res, p=ptable: inversion(res, p, lambda y, x: (
                    f"at ({render_word(y.word)},{render_word(x.word)})")))
        for flavor, ptable, scanner in (
                (ANTISPHERICAL, anti, scan_monotonicity_antispherical),
                (SPHERICAL, sph, scan_monotonicity_spherical)):
            run(CheckResult(f"scan-{flavor}", spec, one_based, flavor, cap,
                            expected_violations=flavor == SPHERICAL),
                lambda res: scan_into(res, scanned(scanner), ptable))

    for subset in subsets:
        quotient_checks(subset, reuse.pop(subset, None)
                        or quotient(subset, ANTISPHERICAL))
    return report


def evaluate_spherical_mandate(res: CheckResult,
                               ctx: ParabolicContext) -> None:
    """Fail the (expected-violations) spherical check if a mandated
    consecutive chain triple is missing from the violations, looked up in
    the record's id arrays."""
    if not is_type_a_wall_quotient(ctx.group.matrix, ctx.subset):
        res.notes.append("no mandated violations for this quotient")
        return
    triples = chain_triples(ctx)
    if triples is None:
        res.passed = False
        res.failures.append("type-A wall quotient is unexpectedly not a chain")
        return
    missing = [t for t in triples if not res.violations.has_triple(*t)]
    res.notes.append(
        f"mandated consecutive chain triples: "
        f"{len(triples) - len(missing)}/{len(triples)} present")
    for z, y, x in missing:
        res.passed = False
        res.failures.append(
            f"missing mandated violation ({render_word(z.word)},"
            f"{render_word(y.word)},{render_word(x.word)})")
