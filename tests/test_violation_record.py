"""The violation record of the scans.

A scan returns its violations as integer arrays and builds a
``Violation`` only when one is read: the record must behave as a
read-only sequence equal to the one-triple-at-a-time references, no scan
may build a violation, a text report builds at most 20 per check, a JSON
report builds each as the encoder reaches it, and the spherical mandate
reads the id arrays.
"""

import gc
import json
import types
from collections.abc import Sequence

import numpy as np
import pytest

from kllab import kernel, verify
from kllab.coxeter import render_word
from kllab.hecke import KLTable
from kllab.kernel import InverseColumn
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, ParabolicContext, ParabolicKLTable,
)
from kllab.verify import (
    CheckResult, Violation, ViolationRecord, chain_triples,
    evaluate_spherical_mandate, run_identity_suite,
    scan_monotonicity_antispherical, scan_monotonicity_classical,
    scan_monotonicity_inverse, scan_monotonicity_spherical,
)
from helpers import (
    get_group, poly, reference_scan_classical, reference_scan_parabolic,
    store_b,
)


@pytest.fixture
def built(monkeypatch):
    """Counts the calls of ``Violation.__init__``."""
    calls = []
    init = Violation.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Violation, "__init__", counting)
    return calls


def spherical(spec: str, subset) -> ParabolicKLTable:
    return ParabolicKLTable(
        ParabolicContext(get_group(spec), subset, SPHERICAL))


@pytest.mark.parametrize("budget", ["default", "minimum"])
def test_sequence_protocol(monkeypatch, budget):
    """On the H3 quotient by I = {1}, in many parts at the minimum cell
    budget, the record reads as the reference list."""
    if budget == "minimum":
        monkeypatch.setattr(kernel, "CELL_BUDGET", 1)
    ptable = spherical("H3", (0,))
    count, record = scan_monotonicity_spherical(ptable)
    ref_count, ref = reference_scan_parabolic(ptable)
    assert count == ref_count and len(ref) > 40
    assert isinstance(record, Sequence)
    assert len(record) == len(ref) and bool(record)
    assert record[0] == ref[0] and record[-1] == ref[-1]
    assert record[-len(ref)] == ref[0] and record[np.int64(5)] == ref[5]
    for i in (len(ref), -len(ref) - 1):
        with pytest.raises(IndexError):
            record[i]
    for s in (slice(None, 20), slice(7, 31), slice(None, None, -3),
              slice(-5, None), slice(40, 3)):
        assert record[s] == ref[s]
    assert [v.text() for v in record] == [v.text() for v in ref]
    assert record == ref and ref == record and record != ref[:-1]
    assert record != ref[1:] + ref[:1]
    assert record.index(ref[9]) == 9 and ref[9] in record


def test_arrays_take_the_narrowest_dtype():
    assert verify._narrow(np.array([0, 255])).dtype == np.uint8
    assert verify._narrow(np.array([0, 256])).dtype == np.uint16
    assert verify._narrow(np.array([-128, 127])).dtype == np.int8
    assert verify._narrow(np.array([-129, 0])).dtype == np.int16
    assert verify._narrow(np.array([-1, 70000])).dtype == np.int32
    _, record = scan_monotonicity_spherical(spherical("H3", (0,)))
    for arrays, _ in record._parts:    # H3 has 120 elements
        assert [a.dtype.itemsize for a in arrays[:3]] == [1, 1, 1]
        # the ids of z, y and x and the witness exponent, and nothing else
        assert [a.dtype.itemsize for a in arrays] == [1, 1, 1, 1]


def test_empty_record():
    table = KLTable(get_group("B3"))
    count, record = scan_monotonicity_inverse(table)
    assert count > 0 and len(record) == 0 and not record
    assert record == [] and record[:20] == [] and list(record) == []
    assert ViolationRecord() == [] and not ViolationRecord()
    with pytest.raises(IndexError):
        record[0]


def test_no_scan_builds_a_violation(built):
    """Spherical violations and an injected classical fault are found
    without one ``Violation`` built; reading one item builds one."""
    table = KLTable(get_group("B3"))
    table.build_all()
    g = table.group
    x = g.element((0, 1, 2, 1))
    terms = dict(table.kl_basis_element(x).terms)
    terms[g.element((1,))] = terms[g.element((1,))] - poly({1: 1})
    store_b(table, x, terms)
    ptable = spherical("B3", (0,))
    ref_classical = reference_scan_classical(table)
    ref_spherical = reference_scan_parabolic(ptable)
    built.clear()
    classical = scan_monotonicity_classical(table)
    found = scan_monotonicity_spherical(ptable)
    anti = ParabolicKLTable(ParabolicContext(g, (0,), ANTISPHERICAL))
    assert not scan_monotonicity_antispherical(anti)[1]
    assert not scan_monotonicity_inverse(table)[1]
    assert built == []
    assert len(classical[1]) == len(ref_classical[1]) > 2
    assert len(found[1]) == len(ref_spherical[1]) > 2
    assert classical[1][-1] == ref_classical[1][-1]
    assert len(built) == 1


def test_suite_text_builds_at_most_20_per_check(built):
    report = run_identity_suite("H3", [(), (0,), (1,), (2,)])
    assert built == []
    shown = [min(20, len(c.violations)) for c in report.checks]
    assert max(len(c.violations) for c in report.checks) > 20
    report.text_lines()
    assert len(built) == sum(shown)


def test_json_builds_each_violation_as_the_encoder_reaches_it(built):
    """The indented encoder of the CLI writes the first violation after
    building one, and the streamed text is that of the eager list."""
    count, record = scan_monotonicity_spherical(spherical("H3", (0,)))
    res = CheckResult("scan-spherical", "H3", [1], SPHERICAL,
                      pairs_checked=count, expected_violations=True,
                      violations=record)
    built.clear()
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(
        res.to_json_obj())
    text = ""
    while '"witness_exponent"' not in text:
        text += next(chunks)
    assert len(built) == 1
    text += "".join(chunks)
    assert len(built) == len(record) > 40
    eager = [v.to_json_obj() for v in record]
    lazy = res.to_json_obj()["violations"]
    assert len(lazy) == len(eager) and lazy == eager and list(lazy) == eager
    assert text == json.dumps({**res.to_json_obj(), "violations": eager},
                              indent=2, sort_keys=True)


@pytest.mark.parametrize("spec,subset", [("A3", (0, 1)), ("A3", (1, 2)),
                                         ("A4", (0, 1, 2)), ("A4", (1, 2, 3))])
def test_mandate_on_the_id_arrays(built, spec, subset):
    ptable = spherical(spec, subset)
    triples = chain_triples(ptable.context)
    res = CheckResult("scan-spherical", spec, [t + 1 for t in subset],
                      SPHERICAL, expected_violations=True)
    res.pairs_checked, res.violations = scan_monotonicity_spherical(ptable)
    evaluate_spherical_mandate(res, ptable.context)
    assert built == []
    assert res.passed and not res.failures
    assert res.notes == [f"mandated consecutive chain triples: "
                         f"{len(triples)}/{len(triples)} present"]


def _without(record: ViolationRecord, z, y, x) -> ViolationRecord:
    """``record`` less the violation (z, y, x)."""
    parts = []
    for arrays, sides in record._parts:
        keep = ~((arrays[0] == z.index) & (arrays[1] == y.index)
                 & (arrays[2] == x.index))
        parts.append((tuple(a[keep] for a in arrays), sides))
    return ViolationRecord(record._elements, parts)


@pytest.mark.parametrize("spec,subset", [("A3", (0, 1)), ("A4", (0, 1, 2))])
def test_mandate_reports_a_dropped_triple(spec, subset):
    ptable = spherical(spec, subset)
    triples = chain_triples(ptable.context)
    z, y, x = triples[-1]
    _, record = scan_monotonicity_spherical(ptable)
    res = CheckResult("scan-spherical", spec, [t + 1 for t in subset],
                      SPHERICAL, expected_violations=True,
                      violations=_without(record, z, y, x))
    assert len(res.violations) == len(record) - 1
    assert res.violations == [v for v in record if (v.z, v.y, v.x)
                              != (z, y, x)]
    evaluate_spherical_mandate(res, ptable.context)
    assert not res.passed
    assert res.failures == [
        f"missing mandated violation ({render_word(z.word)},"
        f"{render_word(y.word)},{render_word(x.word)})"]
    assert res.notes == [f"mandated consecutive chain triples: "
                         f"{len(triples) - 1}/{len(triples)} present"]


def test_suite_fails_on_a_dropped_mandated_triple(monkeypatch):
    """The suite's spherical check on the A3 wall quotient fails, with
    the same text, when its scan misses a mandated triple."""
    def scan(ptable):
        count, record = scan_monotonicity_spherical(ptable)
        triples = chain_triples(ptable.context)
        return count, (_without(record, *triples[0]) if triples else record)

    monkeypatch.setattr(verify, "scan_monotonicity_spherical", scan)
    report = run_identity_suite("A3", [(0, 1)])
    (sph,) = [c for c in report.checks if c.check == "scan-spherical"]
    z, y, x = chain_triples(ParabolicContext(get_group("A3"), (0, 1),
                                             SPHERICAL))[0]
    assert not sph.passed and sph.failures == [
        f"missing mandated violation ({render_word(z.word)},"
        f"{render_word(y.word)},{render_word(x.word)})"]


def holds_a_column(root) -> bool:
    """Whether an ``InverseColumn`` is reachable from ``root`` through
    containers, kllab objects and closures."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, InverseColumn):
            return True
        if isinstance(obj, types.FunctionType):
            todo.extend(c.cell_contents for c in obj.__closure__ or ())
        elif isinstance(obj, (list, tuple, dict, set, frozenset)) or (
                type(obj).__module__.startswith("kllab")):
            todo.extend(gc.get_referents(obj))
    return False


def test_suite_keeps_the_first_violations_for_text_and_csv():
    """With ``keep`` each scan check holds its first violations and its
    count, reads as the whole record reads in text and csv, and holds no
    column of the tables it scanned."""
    args = ("H3", [(), (0,), (1,), (2,)])
    whole, kept = run_identity_suite(*args), run_identity_suite(*args,
                                                                 keep=20)
    assert kept.text_lines() == whole.text_lines()
    shown = [c for c in kept.checks if c.violations]
    assert len(shown) == 3
    for c, w in zip(kept.checks, whole.checks):
        assert len(c.violations) == len(w.violations)
        if c.violations:
            assert c.violations[:25] == w.violations[:20]
    assert holds_a_column(whole) and not holds_a_column(kept)
