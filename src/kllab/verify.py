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

Triples are enumerated by x in id order (length, then ShortLex), then y,
then z, so reports are deterministic and diffable.  The scans run in one
thread: their work is Python and numpy calls on small blocks that hold the
interpreter lock, and a thread pool made them slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .coxeter import (
    CoxeterMatrix, Element, GroupTable, parse_coxeter_spec, render_word,
)
from .hecke import InvariantError, KLTable
from .kernel import (
    InverseColumn, batched, block_row, block_sums, row_poly, row_positions,
)
from .laurent import LaurentPoly
from .parabolic import (
    ANTISPHERICAL, SPHERICAL, FlavorMismatchError, ParabolicContext,
    ParabolicKLTable, check_soergel_identification,
)


class CapRequiredError(ValueError):
    """An infinite group was requested without a length cap, or the cap
    given is negative."""


def build_group(spec: str, cap: int | None = None,
                max_elements: int | None = None) -> GroupTable:
    """Group table from a spec string, demanding a cap for infinite groups."""
    if cap is not None and cap < 0:
        raise CapRequiredError(f"length cap must be >= 0, got {cap}")
    matrix = parse_coxeter_spec(spec)
    if cap is None and not matrix.is_finite():
        raise CapRequiredError(
            f"group {spec!r} is infinite: a length cap is required")
    return GroupTable(matrix, cap, max_elements)


# ----------------------------------------------------------------------
# violations
# ----------------------------------------------------------------------

class Violation:
    """A Bruhat triple z <= y <= x where the shifted comparison fails.

    A block scan passes ``rows`` = (lower, i, upper, j, gap) for the
    polynomials: lhs is v^gap times row i of the dense block ``lower``,
    rhs is row j of ``upper``, both decoded on first access, since a scan
    may find tens of thousands and a text report prints 20 per check.
    """

    __slots__ = ("z", "y", "x", "witness_exponent", "_sides")

    def __init__(self, z: Element, y: Element, x: Element, lhs: LaurentPoly,
                 rhs: LaurentPoly, witness_exponent: int, rows=None):
        self.z, self.y, self.x = z, y, x
        self.witness_exponent = witness_exponent
        self._sides = rows or (lhs, rhs)

    def _decoded(self) -> tuple[LaurentPoly, LaurentPoly]:
        if len(self._sides) > 2:
            lower, i, upper, j, gap = self._sides
            self._sides = row_poly(lower[i]).shift(gap), row_poly(upper[j])
        return self._sides

    lhs = property(lambda self: self._decoded()[0])
    rhs = property(lambda self: self._decoded()[1])

    def _key(self) -> tuple:
        return (self.z, self.y, self.x, *self._decoded(),
                self.witness_exponent)

    def __eq__(self, other) -> bool:
        return isinstance(other, Violation) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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


# ----------------------------------------------------------------------
# monotonicity scans
# ----------------------------------------------------------------------

def scan_monotonicity_inverse(table: KLTable) -> tuple[int, list[Violation]]:
    """All triples violating the inverse-polynomial monotonicity.

    Returns (triples_checked, violations); the theorem predicts an empty
    list for every Coxeter system.
    """
    table.build_all()
    return _scan_columns(table.group, table.inverse_column)


def _scan_columns(xs, column) -> tuple[int, list[Violation]]:
    """v^{l(x)-l(y)} col_y[z] <= col_x[z] over every triple of rows.

    The rows of ``column(x)`` are the y <= x of the family (all of
    downset(x), or its representatives), so the triples are x in ``xs``,
    y a row of column x and z a row of column y.  The columns of the y of
    one length, stacked in id order, are compared with column x as one
    block; a violation keeps where its two rows are and decodes them only
    when read.
    """
    count = 0
    found: list[Violation] = []
    for x in xs:
        colx = column(x)
        elements = colx.group.elements
        where = row_positions(colx.rows, x)
        below = map(elements.__getitem__, colx.rows.tolist())
        for length, level in groupby(below, lambda y: y.length):
            level = list(level)
            cols = [column(y) for y in level]
            at = where[np.concatenate([col.rows for col in cols])]
            count += len(at)
            gap = x.length - length
            rhs = colx.coeffs[at]
            lower = rhs[:, :gap] < 0
            upper = rhs[:, gap:] < np.concatenate([col.coeffs for col in cols])
            if not (lower.any() or upper.any()):
                continue
            bad = np.concatenate((lower, upper), axis=1)
            rows = np.flatnonzero(bad.any(axis=1))
            # row k of the stack is row k - starts[n] of column y_n
            starts = np.cumsum([0] + [len(col.rows) for col in cols])
            for k, witness in zip(rows.tolist(),
                                  bad[rows].argmax(axis=1).tolist()):
                n = int(np.searchsorted(starts, k, side="right")) - 1
                i = k - int(starts[n])
                found.append(Violation(
                    elements[cols[n].rows[i]], level[n], x, None, None,
                    witness, (cols[n].coeffs, i, colx.coeffs, int(at[k]),
                              gap)))
    return count, found


def scan_monotonicity_classical(table: KLTable) -> tuple[int, list[Violation]]:
    """All triples violating classical monotonicity of h_{y,x}.

    Compares whole blocks per (x, y) pair like the inverse scan, over b_x
    made dense on downset(x) once per x, by one block sum.
    """
    table.build_all()
    group = table.group
    lengths = group.lengths
    count = 0
    found: list[Violation] = []
    zero = np.zeros(1, np.intp)
    for x in group:
        ids = group.downset_ids(x)
        b = table.b_block(x)
        (coeffs,) = block_sums(
            group, [x], [ids], x.length + 1, zero, zero, zero, zero + 1, [b],
            [b.row_norm], lambda k: f"the block of {x!r} has a term outside "
                                    f"the rows of {x!r}")
        for i, y in enumerate(group.downset(x)):
            below = group.downset_ids(y)
            count += len(below)
            for j, gap, witness in _classical_failures(
                    coeffs, i, y, np.searchsorted(ids, below),
                    lengths[below]):
                found.append(Violation(group.elements[ids[j]], y, x,
                                       None, None, witness,
                                       (coeffs, i, coeffs, j, gap)))
    return count, found


def _classical_failures(coeffs, i: int, y: Element, pos, below_lengths):
    """(j, gap, e) for each z <= y where v^gap h_{y,x} <= h_{z,x} fails:
    z is row j of ``coeffs`` (b_x dense over downset(x), y its row i),
    gap = l(y) - l(z), and e is the first exponent where h_{z,x} minus
    the shifted h_{y,x} is negative.  ``pos`` holds the rows of
    downset(y) and ``below_lengths`` their lengths.
    """
    width = coeffs.shape[1]
    padded = np.concatenate((np.zeros(width, coeffs.dtype), coeffs[i]))
    # row z of lhs is h_{y,x} shifted up by l(y) - l(z): entry k reads
    # padded[width + k - (l(y) - l(z))], which is 0 below exponent 0
    lhs = padded[(width - y.length) + below_lengths[:, None]
                 + np.arange(width)]
    bad = coeffs[pos] < lhs
    if not bad.any():
        return []
    rows = np.flatnonzero(bad.any(axis=1))
    return zip(pos[rows].tolist(), (y.length - below_lengths[rows]).tolist(),
               bad[rows].argmax(axis=1).tolist())


def _scan_parabolic(ptable: ParabolicKLTable, flavor: str):
    ctx = ptable.context
    if ctx.flavor != flavor:
        raise FlavorMismatchError(
            f"scan needs a {flavor} table, got {ctx.flavor}")
    ptable.build_all()
    return _scan_columns(ctx.reps, ptable.inverse_column)


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
    lengths = [r.length for r in reps]
    if len(set(lengths)) != len(lengths):
        return None
    for a, b in zip(reps, reps[1:]):
        if not ctx.group.bruhat_leq(a, b):
            return None
    return [(reps[i], reps[i + 1], reps[i + 2])
            for i in range(len(reps) - 2)]


def is_type_a_wall_quotient(matrix: CoxeterMatrix, subset) -> bool:
    """True when the diagram is a type-A path and I omits one endpoint.

    Exactly the shape for which the spherical quotient is a chain whose
    every consecutive triple violates monotonicity; the suite treats those
    violations as mandatory.
    """
    rank = matrix.rank
    subset = frozenset(subset)
    if rank < 2 or len(subset) != rank - 1:
        return False
    adj: dict[int, list[int]] = {i: [] for i in range(rank)}
    edges = 0
    for i in range(rank):
        for j in range(i + 1, rank):
            order = matrix.order(i, j)
            if order == 3:
                adj[i].append(j)
                adj[j].append(i)
                edges += 1
            elif order != 2:
                return False
    if edges != rank - 1 or any(len(v) > 2 for v in adj.values()):
        return False
    endpoints = [i for i in range(rank) if len(adj[i]) == 1]
    if len(endpoints) != 2:
        return False
    seen = {endpoints[0]}
    frontier = [endpoints[0]]
    while frontier:
        frontier = [w for u in frontier for w in adj[u]
                    if w not in seen and not seen.add(w)]
    if len(seen) != rank:
        return False
    (omitted,) = set(range(rank)) - subset
    return omitted in endpoints


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
                      key=lambda r: (r[0].sort_key(), r[1]))

    def generating_poly(self, y: Element) -> LaurentPoly:
        return LaurentPoly({i: m for (z, i), m in self.mult.items() if z == y})


def rouquier_multiplicities(table: KLTable, x: Element) -> RouquierTable:
    """Multiplicity table read off the inverse polynomial column of x.

    The degree placement is forced by parity: h^{y,x} only has exponents
    congruent to l(x) - l(y) mod 2, and that is re-asserted here; a
    failure would mean a computation bug upstream.
    """
    col = table.inverse_column(x)
    _check_multiplicities(col, x)
    return RouquierTable(x=x, mult={(y, exp): c for y, h in col.items()
                                    for exp, c in h.items()})


def _wrong_parity(col: InverseColumn) -> np.ndarray:
    """The nonzero entries of the column of x (its last row) at an
    exponent not congruent to l(x) - l(y) mod 2, y the entry's row."""
    lengths = col.group.lengths[col.rows]
    odd = (lengths[-1] - lengths)[:, None] + np.arange(col.coeffs.shape[1])
    return (col.coeffs != 0) & (odd % 2 == 1)


def _check_multiplicities(col: InverseColumn, x: Element) -> None:
    """Raise at the first entry of the column of x, in ``col.items()``
    order, with an exponent of the wrong parity or a negative value."""
    wrong = _wrong_parity(col)
    bad = np.argwhere(wrong | (col.coeffs < 0))
    if len(bad):
        pos, exp = bad[0].tolist()
        y = col.group.elements[col.rows[pos]]
        if wrong[pos, exp]:
            raise InvariantError(
                f"parity-support failure at ({y!r},{x!r}) exponent {exp}")
        raise InvariantError(f"negative multiplicity at ({y!r},{x!r},{exp})")


def rouquier_shadow_ok(table: KLTable, x: Element) -> bool:
    """Grothendieck check: the alternating sum re-expands to delta_x.

    Checks the multiplicities as ``rouquier_multiplicities`` does, then
    sums (-1)^i m^i_y v^i b_y over the blocks of b_y into one dense array
    over downset(x) and compares it with the standard basis element.
    """
    return next(rouquier_shadows(table, [x]))


def rouquier_shadows(table: KLTable, xs):
    """``rouquier_shadow_ok`` for each x of ``xs`` in order, as one
    batched sum of blocks per chunk."""
    group = table.group
    elements = group.elements

    def run(chunk):
        cols = [table.inverse_column(x) for x in chunk]
        for col, x in zip(cols, chunk):
            _check_multiplicities(col, x)
        parts = [col.terms() for col in cols]
        ys, exps, mults = (np.concatenate(p) for p in zip(*parts))
        slot = np.repeat(np.arange(len(chunk)), [len(p[0]) for p in parts])
        zs, which = np.unique(ys, return_inverse=True)
        lower = [table.b_block(elements[y]) for y in zs.tolist()]
        sums = block_sums(
            group, chunk, [col.rows for col in cols],
            max(x.length for x in chunk) + 1, slot, which, exps,
            mults * (1 - 2 * (exps % 2)), lower, [b.row_norm for b in lower],
            lambda k: f"the block of {elements[ys[k]]!r} has a term "
                      f"outside the rows of {chunk[slot[k]]!r}")
        for acc in sums:
            acc[-1, 0] -= 1
        return [not acc.any() for acc in sums]
    return (ok for _, ok in batched(group, xs, lambda x: x.length + 1, run))


# ----------------------------------------------------------------------
# the batched suite
# ----------------------------------------------------------------------

@dataclass
class CheckResult:
    check: str
    group: str
    subset: list[int] = field(default_factory=list)  # 1-based for reporting
    flavor: str | None = None
    cap: int | None = None
    pairs_checked: int = 0
    passed: bool = True
    expected_violations: bool = False
    violations: list = field(default_factory=list)  # Violation objects
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "group": self.group,
            "I": self.subset,
            "flavor": self.flavor,
            "cap": self.cap,
            "pairs_checked": self.pairs_checked,
            "passed": self.passed,
            "expected_violations": self.expected_violations,
            "violations": [v.to_json_obj() for v in self.violations],
            "failures": self.failures,
            "notes": self.notes,
        }

    def text_lines(self) -> list[str]:
        label = self.check
        if self.subset or self.flavor:
            extra = []
            if self.subset:
                extra.append("I={" + ",".join(map(str, self.subset)) + "}")
            if self.flavor:
                extra.append(self.flavor)
            label += " [" + " ".join(extra) + "]"
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
        return {
            "group": self.group,
            "cap": self.cap,
            "passed": self.passed,
            "checks": [c.to_json_obj() for c in self.checks],
        }

    def text_lines(self) -> list[str]:
        cap = "full" if self.cap is None else str(self.cap)
        lines = [f"suite: group {self.group}, cap {cap}"]
        for c in self.checks:
            lines.extend(c.text_lines())
        lines.append(f"suite result: {'PASS' if self.passed else 'FAIL'}")
        return lines


def run_identity_suite(spec: str, subsets=((),), cap: int | None = None,
                       max_elements: int | None = None,
                       group: GroupTable | None = None) -> SuiteReport:
    """Run every identity check and every scan over one group.

    ``subsets`` lists the generator subsets (0-based) for the parabolic
    checks; the non-parabolic checks always run.  ``group``, when given,
    is the already enumerated table of ``spec`` under ``cap``.  Any
    internal error is captured as a failed check rather than propagating.
    """
    if group is None:
        group = build_group(spec, cap, max_elements)
    table = KLTable(group)
    table.build_all()
    report = SuiteReport(group=spec, cap=cap)
    subsets = [frozenset(s) for s in subsets]

    def run(result: CheckResult, body) -> None:
        try:
            body(result)
        except Exception as exc:  # pragma: no cover - defensive capture
            result.passed = False
            result.failures.append(f"error: {type(exc).__name__}: {exc}")
        report.checks.append(result)

    def b_rows(res, failing, message):
        """One pair per y <= x; rows of b_x with a failing term decoded."""
        for x in group:
            block = table.b_block(x)
            res.pairs_checked += len(group.downset_ids(x))
            for y in np.unique(block.rows[block.at[failing(block)]]).tolist():
                res.passed = False
                res.failures.append(
                    message(group.elements[y], x, block_row(block, y)))

    def positivity_kl(res):
        b_rows(res, lambda b: (b.values < 0) | (b.exps < 0),
               lambda y, x, h: f"h at ({y!r},{x!r}) = {h}")

    def column_rows(res, failing, message):
        """One pair per row of each inverse column; failing rows decoded."""
        for x in group:
            col = table.inverse_column(x)
            res.pairs_checked += len(col.rows)
            for pos in np.flatnonzero(failing(col).any(axis=1)).tolist():
                res.passed = False
                res.failures.append(message(
                    group.elements[col.rows[pos]], x, col.coeffs[pos]))

    def positivity_inv(res):
        column_rows(res, lambda col: col.coeffs < 0,
                    lambda y, x, row: f"h^ at ({y!r},{x!r}) = {row_poly(row)}")

    def mu_nonneg(res):
        b_rows(res, lambda b: (b.values < 0) & (b.exps == 1),
               lambda y, x, h: f"mu({y!r},{x!r}) < 0")

    def parity(res):
        column_rows(res, _wrong_parity,
                    lambda y, x, row: f"parity at ({y!r},{x!r})")

    def per_element(res, flags, message):
        """One pair per x, counted before its batched check."""
        for x in group:
            res.pairs_checked += 1
            if not next(flags):
                res.passed = False
                res.failures.append(message(x))

    def bar_invariance(res):
        per_element(res, table.bar_invariance(group),
                    lambda x: f"bar(b) != b at {x!r}")

    def inversion(res, ptable, message):
        """One pair per row of each column of a table of any module; the
        sums of a column are checked with its first pair."""
        sums = ptable.inversion_failures(ptable.basis)
        for x in ptable.basis:
            ids = ptable.column_ids(x).tolist()
            res.pairs_checked += 1
            failures = next(sums)
            res.pairs_checked += len(ids) - 1
            for y in ids:
                if y in failures:
                    res.passed = False
                    res.failures.append(message(group.elements[y], x))

    def rouquier(res):
        per_element(res, rouquier_shadows(table, group),
                    lambda x: f"shadow at {x!r}")

    run(CheckResult("positivity-kl", spec, cap=cap), positivity_kl)
    run(CheckResult("positivity-invkl", spec, cap=cap), positivity_inv)
    run(CheckResult("mu-nonnegative", spec, cap=cap), mu_nonneg)
    run(CheckResult("parity", spec, cap=cap), parity)
    run(CheckResult("bar-invariance", spec, cap=cap), bar_invariance)
    run(CheckResult("inversion-identity", spec, cap=cap),
        lambda res: inversion(res, table, lambda y, x:
                              f"inversion sum at ({y!r},{x!r})"))
    run(CheckResult("rouquier-shadow", spec, cap=cap), rouquier)

    def scan_into(res, scanner, *args):
        count, violations = scanner(*args)
        res.pairs_checked = count
        res.violations = violations
        if violations and not res.expected_violations:
            res.passed = False

    run(CheckResult("scan-classical", spec, cap=cap),
        lambda res: scan_into(res, scan_monotonicity_classical, table))
    run(CheckResult("scan-inverse", spec, cap=cap),
        lambda res: scan_into(res, scan_monotonicity_inverse, table))

    for subset in subsets:
        one_based = sorted(t + 1 for t in subset)
        anti_ctx = ParabolicContext(group, subset, ANTISPHERICAL)
        anti = ParabolicKLTable(anti_ctx)
        sph_ctx = ParabolicContext(group, subset, SPHERICAL)
        sph = ParabolicKLTable(sph_ctx)

        def soergel(res, anti=anti):
            mismatches = check_soergel_identification(anti, table)
            res.pairs_checked = len(anti.context.reps) ** 2
            for z, x, n, h in mismatches:
                res.passed = False
                res.failures.append(
                    f"n^/h^ differ at ({render_word(z.word)},"
                    f"{render_word(x.word)}): {n} vs {h}")

        run(CheckResult("soergel-identification", spec, one_based,
                        ANTISPHERICAL, cap), soergel)
        for ptable in (anti, sph):
            run(CheckResult("parabolic-inversion-identity", spec, one_based,
                            ptable.context.flavor, cap),
                lambda res, p=ptable: inversion(res, p, lambda y, x: (
                    f"at ({render_word(y.word)},{render_word(x.word)})")))
        run(CheckResult("scan-antispherical", spec, one_based,
                        ANTISPHERICAL, cap),
            lambda res: scan_into(res, scan_monotonicity_antispherical, anti))

        def spherical_scan(res, sph=sph, sph_ctx=sph_ctx):
            res.expected_violations = True
            scan_into(res, scan_monotonicity_spherical, sph)
            evaluate_spherical_mandate(res, sph_ctx)

        run(CheckResult("scan-spherical", spec, one_based, SPHERICAL, cap),
            spherical_scan)

    return report


def evaluate_spherical_mandate(res: CheckResult,
                               ctx: ParabolicContext) -> None:
    """Fail the (expected-violations) spherical check if a mandated
    consecutive chain triple is missing from the violations."""
    if not is_type_a_wall_quotient(ctx.group.matrix, ctx.subset):
        res.notes.append("no mandated violations for this quotient")
        return
    triples = chain_triples(ctx)
    if triples is None:
        res.passed = False
        res.failures.append("type-A wall quotient is unexpectedly not a chain")
        return
    got = {(v.z, v.y, v.x) for v in res.violations}
    missing = [t for t in triples if t not in got]
    res.notes.append(
        f"mandated consecutive chain triples: "
        f"{len(triples) - len(missing)}/{len(triples)} present")
    for z, y, x in missing:
        res.passed = False
        res.failures.append(
            f"missing mandated violation ({render_word(z.word)},"
            f"{render_word(y.word)},{render_word(x.word)})")
