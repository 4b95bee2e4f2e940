"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Every comparison here is exact; there are no tolerances anywhere.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.

The heavy tables (H3 with 120 elements, B3 with 48) are built once per
session through the cached factories in helpers.
"""

import itertools
import json

from kllab.cli import main as cli_main
from kllab.laurent import LaurentPoly
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, ParabolicContext, ParabolicKLTable,
    check_soergel_identification,
)
from kllab.verify import (
    chain_triples, rouquier_multiplicities, rouquier_shadows,
    scan_monotonicity_antispherical, scan_monotonicity_classical,
    scan_monotonicity_inverse, scan_monotonicity_spherical,
)
from helpers import get_group, get_kl, poly, solved_b

# (spec, cap): criterion-1 ranges; H3 and B3 are the big ones
SCAN_RANGES = [
    ("A2", None), ("B2", None), ("G2", None), ("A3", None),
    ("H3", None), ("B3", None), ("I2(inf)", 10), ("Aff-A1", 10),
]

# every singleton and 2-element subset, for the rank-3 groups of criterion 2
RANK3_SUBSETS = [frozenset(c) for k in (1, 2)
                 for c in itertools.combinations(range(3), k)]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed{tail}"


def test_criterion_01_inverse_monotonicity():
    bad = []
    checked = 0
    for spec, cap in SCAN_RANGES:
        count, violations = scan_monotonicity_inverse(get_kl(spec, cap))
        checked += count
        bad.extend((spec, v) for v in violations)
    report(1, "inverse monotonicity", not bad,
           f"{checked} triples over {len(SCAN_RANGES)} groups, "
           f"{len(bad)} violations")


def test_criterion_02_antispherical_monotonicity():
    bad = []
    checked = 0
    for spec in ("A3", "B3"):
        group = get_group(spec)
        for subset in RANK3_SUBSETS:
            table = ParabolicKLTable(
                ParabolicContext(group, subset, ANTISPHERICAL))
            count, violations = scan_monotonicity_antispherical(table)
            checked += count
            bad.extend(((spec, tuple(sorted(subset)), v)
                        for v in violations))
    report(2, "antispherical monotonicity", not bad,
           f"{checked} triples over 12 quotients, {len(bad)} violations")


def test_criterion_03_classical_monotonicity():
    bad = []
    checked = 0
    for spec, cap in SCAN_RANGES:
        count, violations = scan_monotonicity_classical(get_kl(spec, cap))
        checked += count
        bad.extend((spec, v) for v in violations)
    report(3, "classical monotonicity", not bad,
           f"{checked} triples over {len(SCAN_RANGES)} groups, "
           f"{len(bad)} violations")


def test_criterion_04_spherical_counterexample():
    missing = []
    total = 0
    for spec, subset in [("A2", frozenset({0})), ("A3", frozenset({0, 1}))]:
        ctx = ParabolicContext(get_group(spec), subset, SPHERICAL)
        table = ParabolicKLTable(ctx)
        _, violations = scan_monotonicity_spherical(table)
        found = {(v.z, v.y, v.x) for v in violations}
        triples = chain_triples(ctx)
        assert triples, f"{spec} quotient is not a chain"
        total += len(triples)
        missing.extend((spec, t) for t in triples if t not in found)
    report(4, "spherical counterexample", not missing,
           f"{total - len(missing)}/{total} mandated consecutive chain "
           f"triples violated")


def test_criterion_05_soergel_identification():
    cases = [(spec, frozenset(), cap) for spec, cap in SCAN_RANGES]
    cases += [(spec, subset, None) for spec in ("A3", "B3")
              for subset in RANK3_SUBSETS]
    bad = 0
    pairs = 0
    for spec, subset, cap in cases:
        kl = get_kl(spec, cap)
        anti = ParabolicKLTable(
            ParabolicContext(kl.group, subset, ANTISPHERICAL))
        mismatches = check_soergel_identification(anti, kl)
        pairs += len(anti.context.reps) ** 2
        bad += len(mismatches)
    report(5, "inverse-polynomial identification n^=h^", bad == 0,
           f"{pairs} pairs over {len(cases)} quotients, {bad} mismatches")


def test_criterion_06_positivity():
    bad = 0
    pairs = 0
    for spec, cap in SCAN_RANGES:
        table = get_kl(spec, cap)
        group = table.group
        for x in group:
            for y in group.downset(x):
                pairs += 1
                for p in (table.kl_poly(y, x), table.inverse_kl_poly(y, x)):
                    if not (p.is_nonnegative()
                            and all(e >= 0 for e in p.exponents())):
                        bad += 1
                if table.mu(y, x) < 0:
                    bad += 1
    report(6, "positivity of h, h^ and mu", bad == 0,
           f"{pairs} pairs, {bad} failures")


def test_criterion_07_parity():
    bad = 0
    pairs = 0
    for spec, cap in SCAN_RANGES:
        table = get_kl(spec, cap)
        group = table.group
        for x in group:
            for y in group.downset(x):
                pairs += 1
                if not table.check_parity(y, x):
                    bad += 1
    report(7, "parity of inverse polynomial exponents", bad == 0,
           f"{pairs} pairs, {bad} failures")


def test_criterion_08_inversion_identities():
    bad = 0
    pairs = 0
    for spec in ("A2", "B2", "G2", "A3"):
        table = get_kl(spec)
        group = table.group
        for x in group:
            for y in group.downset(x):
                pairs += 1
                if not table.check_inversion_identity(y, x):
                    bad += 1
    quotients = [("A2", s) for s in ({0}, {1}, {0, 1})]
    quotients += [(spec, s) for spec in ("A3", "B3") for s in RANK3_SUBSETS]
    for spec, subset in quotients:
        group = get_group(spec)
        for flavor in (SPHERICAL, ANTISPHERICAL):
            table = ParabolicKLTable(ParabolicContext(group, subset, flavor))
            ctx = table.context
            for x in ctx.reps:
                for y in group.downset(x):
                    if not ctx.is_rep(y):
                        continue
                    pairs += 1
                    if not table.check_inversion_identity(y, x):
                        bad += 1
    report(8, "inversion identities (plain and both parabolic flavors)",
           bad == 0, f"{pairs} pairs, {bad} failures")


def test_criterion_09_oracle_equivalence():
    bad = 0
    elements = 0
    for spec in ("A2", "B2", "G2", "A3"):
        table = get_kl(spec)
        for x in table.group:
            elements += 1
            if table.kl_basis_element(x) != solved_b(table.group, x):
                bad += 1
    table = get_kl("A3")
    g = table.group
    y, x = g.element((1,)), g.element((1, 0, 2, 1))
    golden = poly({1: 1, 3: 1})
    solve_value = solved_b(g, x).coefficient(y)
    golden_ok = solve_value == golden and table.kl_poly(y, x) == golden
    report(9, "mu-recursion equals bar-invariance solve", bad == 0 and golden_ok,
           f"{elements} elements, {bad} disagreements; golden value "
           f"{solve_value} by both routes")


def test_criterion_10_rouquier_shadow():
    bad = 0
    elements = 0
    for spec in ("A2", "B2"):
        table = get_kl(spec)
        for x in table.group:
            elements += 1
            rt = rouquier_multiplicities(table, x)  # parity asserted inside
            for (z, i), m in rt.mult.items():
                if i % 2 != (x.length - z.length) % 2 or m <= 0:
                    bad += 1
            if not next(rouquier_shadows(table, [x])):
                bad += 1
    report(10, "standard-object multiplicity shadow", bad == 0,
           f"{elements} tables, {bad} failures")


def test_criterion_11_determinism(capsys):
    argv = ["suite", "--group", "B2", "--format", "json"]
    outputs = []
    for threads in ("1", "1", "3"):
        code = cli_main(argv + ["--threads", threads])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out.encode())
    same = outputs[0] == outputs[1] == outputs[2]
    # also text format across thread counts
    texts = []
    for threads in ("1", "4"):
        code = cli_main(["suite", "--group", "A2", "--threads", threads])
        captured = capsys.readouterr()
        assert code == 0
        texts.append(captured.out.encode())
    same = same and texts[0] == texts[1]
    with capsys.disabled():
        report(11, "byte-identical suite output across runs and threads",
               same, f"{len(outputs[0])} bytes")
    parsed = json.loads(outputs[0])
    assert parsed["passed"] is True
