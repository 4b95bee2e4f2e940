"""Suite checks on the integer blocks.

The Rouquier shadow check sums the blocks of b_y and must agree with the
``HeckeElt`` route it replaced, including on injected faults and under
the exact-int fallback.  Scan violations are decoded from the record's
rows when read; they must equal eagerly built references field by field
and render the same, and a passing suite decodes nothing.  Random Coxeter
matrices of rank <= 3 must pass every check of the whole suite.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kllab
from kllab import cli, coxeter, hecke, kernel, laurent, parabolic, verify
from kllab.coxeter import (
    INFINITY, CoxeterMatrix, GroupTable, parse_coxeter_spec,
)
from kllab.hecke import KLTable
from kllab.kernel import Block, InverseColumn, InvariantError
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, ParabolicContext, ParabolicKLTable,
)
from kllab.verify import (
    rouquier_multiplicities, rouquier_shadows, run_identity_suite,
    scan_monotonicity_antispherical, scan_monotonicity_classical,
    scan_monotonicity_inverse, scan_monotonicity_spherical,
)
from helpers import (
    get_group, poly, reference_rouquier_shadow, reference_scan_classical,
    reference_scan_inverse, reference_scan_parabolic, solved_b, store_b,
)
from test_kernel import relabelled_matrix_file


def assert_shadow_matches_reference(table: KLTable) -> None:
    for x in table.group:
        assert next(rouquier_shadows(table, [x])), x
        assert reference_rouquier_shadow(table, x), x


class TestShadowMatchesReference:
    @pytest.mark.parametrize("spec,cap", [
        ("A3", None), ("B3", None), ("H3", None), ("Aff-A2", 8),
        ("I2(inf)", 20),
    ])
    def test_presets(self, spec, cap):
        assert_shadow_matches_reference(KLTable(get_group(spec, cap)))

    def test_relabelled_random_matrix(self, tmp_path):
        spec = relabelled_matrix_file(tmp_path, seed=11)
        group = GroupTable(parse_coxeter_spec(spec), 6)
        assert_shadow_matches_reference(KLTable(group))


def _with_entries(table: KLTable, x, edits) -> None:
    """Replace the stored column of x by a copy with coefficient
    (row of ``word``, ``exp``) set to ``value`` for each edit, and drop
    the kept shadow pass of x."""
    g = table.group
    col = table.inverse_column(x)
    coeffs = col.coeffs.astype(np.int64)
    for word, exp, value in edits:
        coeffs[int(np.searchsorted(col.rows, g.element(word).index)),
               exp] = value
    table._inv_cols[x.index] = InverseColumn(col.rows, coeffs)
    table._shadow.pop(x.index, None)


def _raised(check, table, x) -> str:
    with pytest.raises(InvariantError) as info:
        check(table, x)
    return str(info.value)


class TestShadowFaults:
    """Faults injected into the column of x = 1,2,3,2,1 in B3, whose
    entries at y = 1 and y = 1,3 are v^4 and v + v^3."""

    word = (0, 1, 2, 1, 0)

    def setup_method(self):
        self.table = KLTable(GroupTable(get_group("B3").matrix))
        self.x = self.table.group.element(self.word)

    def test_wrong_coefficient_is_false(self):
        _with_entries(self.table, self.x, [((0, 2), 3, 3)])
        assert not reference_rouquier_shadow(self.table, self.x)
        assert not next(rouquier_shadows(self.table, [self.x]))

    @pytest.mark.parametrize("edits,message", [
        ([((0, 2), 2, 1)],
         "parity-support failure at (<1,3>,<1,2,3,2,1>) exponent 2"),
        ([((0, 2), 3, -1)], "negative multiplicity at (<1,3>,<1,2,3,2,1>,3)"),
        # the first fault in row order wins, whichever its kind
        ([((0, 2), 3, -1), ((0,), 3, 1)],
         "parity-support failure at (<1>,<1,2,3,2,1>) exponent 3"),
        # within a row, the lowest exponent wins
        ([((0, 2), 3, -1), ((0, 2), 2, 1)],
         "parity-support failure at (<1,3>,<1,2,3,2,1>) exponent 2"),
        ([((0, 2), 1, -1), ((0, 2), 2, 1)],
         "negative multiplicity at (<1,3>,<1,2,3,2,1>,1)"),
        # outside the window [0, 3] as well: the multiplicities come first
        ([((0, 2), 4, 1)],
         "parity-support failure at (<1,3>,<1,2,3,2,1>) exponent 4"),
    ])
    def test_bad_terms_raise_the_old_messages(self, edits, message):
        _with_entries(self.table, self.x, edits)
        for check in (reference_rouquier_shadow,
                      lambda t, x: next(rouquier_shadows(t, [x])),
                      rouquier_multiplicities):
            assert _raised(check, self.table, self.x) == message


    def _raise_alike(self, x, expected, xs=None) -> None:
        """A lone request for x and one for ``xs`` (the whole group by
        default), where x shares a chunk with longer columns, raise
        ``expected``."""
        assert _raised(lambda t, x: next(rouquier_shadows(t, [x])),
                       self.table, x) == expected
        assert _raised(lambda t, x: list(rouquier_shadows(t, xs or t.group)),
                       self.table, x) == expected

    def test_term_outside_the_window_raises_in_any_chunk(self):
        """v^5 at y = 1,3 has the right parity and sign but lies outside
        [0, l(x) - l(y)] = [0, 3]."""
        self.table.build_all()
        _with_entries(self.table, self.x, [((0, 2), 5, 1)])
        self._raise_alike(self.x, "coefficient of <1,3> at <1,2,3,2,1> has "
                                  "a term outside the window [0, 3]")

    def test_block_term_past_the_column_raises_in_any_chunk(self):
        """v^3 added to the identity's row of b_z, z = 1,3: in the column
        of z the term reaches v^3, past l(z) = 2.  The column shares its
        chunk with that of 2,3,2,3, which is not above z."""
        self.table.build_all()
        g = self.table.group
        z = g.element((0, 2))
        terms = dict(self.table.kl_basis_element(z).terms)
        terms[g.identity] = terms[g.identity] + poly({3: 1})
        store_b(self.table, z, terms)
        self._raise_alike(z, "the block of <1,3> has a term outside the "
                             "rows of <1,3>", [z, g.element((1, 2, 1, 2))])


def test_shadow_exact_fallback_under_a_small_limit(monkeypatch):
    """With the int64 limit at 8 the shadow sums of long elements run in
    exact ints and give the same answers."""
    monkeypatch.setattr(kernel, "INT64_LIMIT", 8)
    seen = []
    table = KLTable(GroupTable(get_group("B3").matrix))
    table.build_all()

    def spy(acc, *args, _add=kernel.add_blocks):
        seen.append(acc.dtype)
        return _add(acc, *args)
    # the tables are built, so the shadow sums are the scatter's callers
    monkeypatch.setattr(kernel, "add_blocks", spy)
    assert_shadow_matches_reference(table)
    assert np.dtype(object) in seen and np.dtype(np.int64) in seen
    x = table.group.element(TestShadowFaults.word)
    _with_entries(table, x, [((0, 2), 3, 3)])
    assert not next(rouquier_shadows(table, [x]))


def test_suite_column_checks_report_failing_rows(monkeypatch):
    """positivity-invkl and parity read whole columns; with faults in one
    column they report exactly the rows the per-pair checks report."""
    group = GroupTable(get_group("B3").matrix)
    x = group.element(TestShadowFaults.word)
    edits = [((0, 2), 2, 1), ((0, 1, 0), 2, -1), ((1, 2), 1, -3)]

    class Faulty(KLTable):
        # the column of x is edited once every column is built, since the
        # columns above x are built from it
        def build_all(self):
            super().build_all()
            _with_entries(self, x, edits)

    monkeypatch.setattr(verify, "KLTable", Faulty)
    report = run_identity_suite("B3", [()], group=group)
    checks = {c.check: c for c in report.checks}
    table = Faulty(group)
    table.build_all()
    pairs = [(y, z) for z in group for y in group.downset(z)]
    negative = [f"h^ at ({y!r},{z!r}) = {table.inverse_kl_poly(y, z)}"
                for y, z in pairs if not table.inverse_kl_poly(y, z)
                .is_nonnegative()]
    odd = [f"parity at ({y!r},{z!r})" for y, z in pairs
           if not table.check_parity(y, z)]
    assert len(negative) == 2 and len(odd) == 1
    for name, expected in (("positivity-invkl", negative), ("parity", odd)):
        assert not checks[name].passed
        assert checks[name].failures == expected
        assert checks[name].pairs_checked == len(pairs)


def _fields(v) -> tuple:
    return v.z, v.y, v.x, v.lhs, v.rhs, v.witness_exponent


def assert_violations_match(got, expected) -> None:
    assert got[0] == expected[0]
    assert len(got[1]) == len(expected[1])
    for v, ref in zip(got[1], expected[1]):
        assert _fields(v) == _fields(ref)
        assert v.text() == ref.text()
        assert v.to_json_obj() == ref.to_json_obj()
        assert v == ref and hash(v) == hash(ref)


class TestViolationsOnDemand:
    @pytest.mark.parametrize("spec,subset", [
        ("H3", ()), ("H3", (0,)), ("H3", (1,)), ("H3", (2,)),
        ("A3", ()), ("A3", (0,)), ("A3", (0, 1)), ("A3", (1, 2)),
    ])
    def test_spherical_scan_matches_eager_reference(self, spec, subset):
        ptable = ParabolicKLTable(
            ParabolicContext(get_group(spec), subset, SPHERICAL))
        got = scan_monotonicity_spherical(ptable)
        assert_violations_match(got, reference_scan_parabolic(ptable))

    def test_injected_inverse_fault(self):
        table = KLTable(GroupTable(get_group("B3").matrix))
        table.build_all()
        _with_entries(table, table.group.element((0, 1, 2, 1)),
                      [((), 4, 0), ((1,), 1, -2)])
        expected = reference_scan_inverse(table)
        assert len(expected[1]) > 2
        assert_violations_match(scan_monotonicity_inverse(table), expected)

    def test_injected_classical_fault(self):
        table = KLTable(GroupTable(get_group("B3").matrix))
        table.build_all()
        g = table.group
        x = g.element((0, 1, 2, 1))
        terms = dict(table.kl_basis_element(x).terms)
        terms[g.element((1,))] = terms[g.element((1,))] - poly({1: 1})
        store_b(table, x, terms)
        expected = reference_scan_classical(table)
        assert len(expected[1]) > 2
        assert_violations_match(scan_monotonicity_classical(table), expected)

    def test_b_column_checks_report_failing_rows(self, monkeypatch):
        class BrokenB(KLTable):
            def build_all(self):
                super().build_all()
                if broken:
                    return
                g = self.group
                x = g.element((0, 1, 2, 1))
                z = next(y for y in g.downset(x) if y.length == 3)
                terms = dict(self.kl_basis_element(x).terms)
                terms[z] = terms[z] - poly({1: 3})
                store_b(self, x, terms)
                broken.append((z, x))

        broken = []
        monkeypatch.setattr(verify, "KLTable", BrokenB)
        report = run_identity_suite("B3", [()])
        (z, x), = broken
        checks = {c.check: c for c in report.checks}
        pairs = sum(len(x.group.downset_ids(w)) for w in x.group)
        assert checks["positivity-kl"].failures == [
            f"h at ({z!r},{x!r}) = {poly({1: -2})}"]
        assert checks["mu-nonnegative"].failures == [f"mu({z!r},{x!r}) < 0"]
        for name in ("positivity-kl", "mu-nonnegative", "positivity-invkl"):
            assert checks[name].pairs_checked == pairs

    def test_a3_wall_quotient_mandate(self):
        report = run_identity_suite("A3", [(0, 1)])
        (sph,) = [c for c in report.checks if c.check == "scan-spherical"
                  and c.subset == [1, 2]]
        assert sph.passed and sph.violations
        assert "mandated consecutive chain triples: 2/2 present" in sph.notes


DECODERS = ("row_poly", "block_terms", "block_row")


def test_passing_suite_decodes_nothing(monkeypatch):
    """Every check of a passing suite reads arrays: no decoder is called,
    under any name a kllab module holds it by.  Rendering the report,
    which builds violations, shows the spies are live."""
    calls, holders = [], set()
    for module in (kllab, cli, coxeter, hecke, kernel, laurent, parabolic,
                   verify):
        for name in DECODERS:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            holders.add((module.__name__, name))

            def spy(*args, _fn=fn, _where=(module.__name__, name)):
                calls.append(_where)
                return _fn(*args)
            monkeypatch.setattr(module, name, spy)
    assert {(f"kllab.{m}", "row_poly") for m in (
        "hecke", "kernel", "parabolic", "verify")} <= holders
    assert {(f"kllab.{m}", "block_terms") for m in (
        "hecke", "kernel", "verify")} <= holders
    assert not {name for module, name in holders if module == "kllab.cli"}
    report = run_identity_suite("H3", [(), (0,), (1,), (2,)])
    assert report.passed
    assert calls == []
    report.text_lines()
    assert ("kllab.verify", "row_poly") in calls


def test_empty_subset_scanned_once(monkeypatch):
    """With I empty both flavor scans read the regular table's inverse
    scan, since the regular table serves I empty: classical, inverse,
    then two scans at each singleton, the five theorem scans decided on
    their cover triples and the three spherical ones by the triple
    kernel over all triples.  Both checks report that result.  A kernel
    call given the zs of each y (the classical cover triples) is not
    counted."""
    calls = []
    for name in ("_decided", "_scan_triples"):
        def spy(*args, _scan=getattr(verify, name), _name=name, **kwargs):
            if kwargs.get("zs") is None:
                calls.append(_name)
            return _scan(*args, **kwargs)
        monkeypatch.setattr(verify, name, spy)
    report = run_identity_suite("H3", [(), (0,), (1,), (2,)])
    assert report.passed
    assert sorted(calls) == ["_decided"] * 5 + ["_scan_triples"] * 3
    (inverse,) = [c for c in report.checks if c.check == "scan-inverse"]
    anti, sph = [c for c in report.checks if not c.subset
                 and c.check in ("scan-antispherical", "scan-spherical")]
    assert anti.pairs_checked == sph.pairs_checked == inverse.pairs_checked
    assert inverse.pairs_checked > 0
    assert anti.violations is sph.violations is inverse.violations


def _builders(monkeypatch) -> list:
    """Record (pass, table) of every inverse-column step and every
    alternating sum of either orientation, the Kronecker sums or the
    shadow pass, whose inner columns are its table's."""
    tables = []

    def steps(self, *args, _steps=kernel.ColumnTable._inverse_steps):
        tables.append(("steps", self))
        return _steps(self, *args)

    def sums(*args, _sums=kernel.alternating_failures):
        inner_of = args[3]      # inverse columns or canonical blocks
        assert inner_of.__func__ in (kernel.ColumnTable.inverse_columns,
                                     type(inner_of.__self__).canonical_blocks)
        tables.append(("sums", inner_of.__self__))
        return _sums(*args)
    monkeypatch.setattr(kernel.ColumnTable, "_inverse_steps", steps)
    monkeypatch.setattr(kernel, "alternating_failures", sums)
    return tables


def _empty_subset_passes(tables) -> list:
    return [(p, t) for p, t in tables if isinstance(t, ParabolicKLTable)
            and not t.context.subset]


def test_empty_subset_adopts_the_regular_columns(monkeypatch):
    """When bar-invariance passes, no I empty quotient table builds an
    inverse column or a Kronecker sum: the regular table serves I empty
    with its own, and the singletons still build theirs."""
    tables = _builders(monkeypatch)
    report = run_identity_suite("A3", [(), (0,)])
    assert report.passed
    assert _empty_subset_passes(tables) == []
    for kind in ("steps", "sums"):
        assert any(p == kind and isinstance(t, KLTable) for p, t in tables)
        assert any(p == kind and isinstance(t, ParabolicKLTable)
                   and t.context.subset for p, t in tables)


def _same_arrays(a: tuple, b: tuple) -> bool:
    return all(np.array_equal(p, q) and (not isinstance(p, np.ndarray)
                                         or p.dtype == q.dtype)
               for p, q in zip(a, b))


@pytest.mark.parametrize("spec,cap", [("A3", None), ("H3", None),
                                      ("Aff-A2", 8)])
def test_empty_subset_flavors_are_one_module(spec, cap):
    """With I empty the spherical and antispherical tables, built apart,
    agree block for block and column for column, and either table serves
    either scan with the same result."""
    group = get_group(spec, cap)
    sph, anti = (ParabolicKLTable(ParabolicContext(group, (), flavor))
                 for flavor in (SPHERICAL, ANTISPHERICAL))
    sph.build_all()
    anti.build_all()
    assert list(sph.basis) == list(anti.basis) == list(group)
    for x in group:
        assert _same_arrays(hecke.bar_block(sph.context, x),
                            hecke.bar_block(anti.context, x)), x
        assert _same_arrays(sph.canonical_block(x), anti.canonical_block(x))
        assert _same_arrays(sph.inverse_column(x), anti.inverse_column(x))
    assert isinstance(sph.canonical_block(group.identity), Block)
    scans = [scan(table) for table in (sph, anti) for scan in (
        scan_monotonicity_spherical, scan_monotonicity_antispherical)]
    assert all(got == scans[0] for got in scans)


def test_suite_builds_one_empty_subset_table(monkeypatch):
    """While the regular table's certificate holds, the suite builds no
    table for I empty, which the regular table serves under both flavors,
    and one per flavor for each other subset, gathered from b."""
    flavors = []

    class Counted(ParabolicKLTable):
        def __init__(self, context, b=None):
            flavors.append((tuple(sorted(context.subset)), context.flavor,
                            b is not None))
            super().__init__(context, b)
    monkeypatch.setattr(verify, "ParabolicKLTable", Counted)
    report = run_identity_suite("A3", [(), (0,)])
    assert report.passed
    assert sorted(flavors) == [((0,), ANTISPHERICAL, True),
                               ((0,), SPHERICAL, True)]
    labels = [(c.check, c.subset, c.flavor) for c in report.checks
              if c.subset == []]
    assert ("parabolic-inversion-identity", [], SPHERICAL) in labels
    assert ("scan-spherical", [], SPHERICAL) in labels


def _break_b(monkeypatch, group, x) -> None:
    """Make the suite's regular table break the block of b_x after its
    build, adding v^2 at the identity."""
    class BrokenB(KLTable):
        def build_all(self):
            super().build_all()
            terms = dict(self.kl_basis_element(x).terms)
            terms[group.identity] = terms[group.identity] + poly({2: 1})
            store_b(self, x, terms)
    monkeypatch.setattr(verify, "KLTable", BrokenB)


def test_suite_bar_invariance_sees_a_broken_b(monkeypatch):
    """One b block of A3 broken after the build: the bar-invariance check,
    which compares the b blocks with those of the I empty table, fails at
    exactly that x."""
    group = get_group("A3")
    x = group.element((0, 1, 0))
    _break_b(monkeypatch, group, x)
    tables = _builders(monkeypatch)
    report = run_identity_suite("A3", [()], group=group)
    (check,) = [c for c in report.checks if c.check == "bar-invariance"]
    assert not check.passed
    assert check.failures == [f"bar(b) != b at {x!r}"]
    assert check.pairs_checked == len(group)
    # so the I empty table builds its own columns and sums, and scans them
    passes = _empty_subset_passes(tables)
    assert {p for p, _ in passes} == {"steps", "sums"}
    assert len({id(t) for _, t in passes}) == 1
    (inverse,) = [c for c in report.checks if c.check == "scan-inverse"]
    anti = [c for c in report.checks if c.check == "scan-antispherical"]
    assert anti[0].violations is not inverse.violations


@pytest.mark.parametrize("subsets,broken", [
    pytest.param(subsets, broken, id=str(subsets) + "-broken" * broken)
    for subsets, broken in (([(), (0,)], False), ([(0,)], False),
                            ([(0,), ()], False), ([(0,), ()], True))])
def test_suite_solves_the_empty_quotient_once(monkeypatch, subsets, broken):
    """While the regular table's certificate holds, nothing of the I
    empty quotient is solved, whether and wherever subsets lists I empty,
    and the regular table serves I empty.  With a broken b the
    certificate fails: each x of the I empty quotient is solved once, for
    the bar-invariance check, and the oracle serves I empty and builds its
    own columns and sums.  The certificates of the (0,) gathers are made
    to fail, so the (0,) tables are solved: with a clean b no oracle is
    alive then, and with a broken b the oracle stays alive while (0,) is
    solved."""
    group = get_group("A3")
    solved, alive, empty_tables = [], [], weakref.WeakSet()
    solving = []            # the context of the table whose blocks are solved

    def spy(*args, _solve=kernel._bar_solve_chunk):
        _, batch, _, _ = args
        if solving[-1].subset:
            alive.append(len(empty_tables))
        else:
            solved.extend(x.index for x in batch.xs)
        return _solve(*args)

    class Tracked(ParabolicKLTable):
        def __init__(self, context, b=None):
            super().__init__(context, b)
            if not context.subset:
                empty_tables.add(self)

        def canonical_blocks(self, xs):
            solving[:] = [self.context]
            return super().canonical_blocks(xs)
    monkeypatch.setattr(kernel, "_bar_solve_chunk", spy)
    monkeypatch.setattr(verify, "ParabolicKLTable", Tracked)
    monkeypatch.setattr(verify, "certified", lambda table, _c=verify.certified:
                        not table.context.subset and _c(table))
    if broken:
        _break_b(monkeypatch, group, group.element((0, 1, 0)))
    tables = _builders(monkeypatch)
    assert run_identity_suite("A3", subsets, group=group).passed != broken
    assert sorted(solved) == list(range(len(group)) if broken else [])
    assert set(alive) == {int(broken)}
    assert {p for p, _ in _empty_subset_passes(tables)} == (
        {"steps", "sums"} if broken else set())


def test_a_failed_regular_build_is_a_failed_check(monkeypatch, capsys):
    """An InvariantError raised while the suite builds the regular table
    fails the first check, as a quotient's build error fails its check:
    the suite returns its report, and ``kllab suite`` prints it and exits
    1 with nothing on stderr."""
    def check_columns(self, columns):
        for x, _ in columns:
            if x.length == 3:
                raise InvariantError(f"injected at {x!r}")
    monkeypatch.setattr(KLTable, "_check_columns", check_columns)
    report = run_identity_suite("A3", [(), (0,)])
    first = report.checks[0]
    assert first.check == "positivity-kl" and not first.passed
    assert first.failures[0].startswith("error: InvariantError: injected at")
    assert not report.passed
    assert cli.main(["suite", "--group", "A3"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("suite: group A3, cap full\nFAIL positivity-kl")
    assert out.endswith("suite result: FAIL\n") and err == ""


_BONDS = st.sampled_from([2, 3, 4, 5, 6, 7, INFINITY])
_CHECKS = {
    "positivity-kl", "positivity-invkl", "mu-nonnegative", "parity",
    "bar-invariance", "inversion-identity", "rouquier-shadow",
    "scan-classical", "scan-inverse", "soergel-identification",
    "parabolic-inversion-identity", "scan-antispherical", "scan-spherical",
}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.tuples(_BONDS, _BONDS, _BONDS),
       st.integers(1, 5))
def test_random_matrices_pass_the_whole_suite(rank, bonds, cap):
    rows = [[1, bonds[0], bonds[1]], [bonds[0], 1, bonds[2]],
            [bonds[1], bonds[2], 1]]
    group = GroupTable(CoxeterMatrix([r[:rank] for r in rows[:rank]]), cap)
    subsets = [()] + [(t,) for t in range(rank)]
    report = run_identity_suite("random", subsets, cap, group=group)
    assert {c.check for c in report.checks} == _CHECKS
    for check in report.checks:
        assert check.passed and not check.failures, check.text_lines()
        if check.check != "scan-spherical":
            assert check.violations == [], check.check
    table = KLTable(group)
    for x in group:
        assert table.kl_basis_element(x) == solved_b(group, x), x
