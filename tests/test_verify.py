"""Monotonicity scans, the spherical counterexample, multiplicity tables,
and the batched identity suite."""

import json

import pytest

from kllab.hecke import HeckeElt, InvariantError, KLTable
from kllab.laurent import LaurentPoly
from kllab.parabolic import (
    ANTISPHERICAL, SPHERICAL, FlavorMismatchError, ParabolicContext,
    ParabolicKLTable,
)
from kllab.verify import (
    CapRequiredError, build_group, chain_triples, evaluate_spherical_mandate,
    is_type_a_wall_quotient, rouquier_multiplicities, rouquier_shadows,
    run_identity_suite, scan_monotonicity_antispherical,
    scan_monotonicity_classical, scan_monotonicity_inverse,
    scan_monotonicity_spherical, CheckResult,
)
from helpers import get_group, get_kl, poly


class TestBuildGroup:
    def test_finite_defaults_to_full(self):
        assert len(build_group("A3")) == 24

    def test_infinite_requires_cap(self):
        with pytest.raises(CapRequiredError):
            build_group("Aff-A1")
        assert len(build_group("Aff-A1", 10)) == 21


class TestMonotonicityDirection:
    def test_normalisation_on_hand_values(self):
        # h^{e,s2} = v and h^{e,s2s1} = v^2: the shifted comparison
        # v^{l(x)-l(y)} h^{z,y} <= h^{z,x} holds with equality here
        kl = get_kl("A2")
        g = kl.group
        z, y, x = g.identity, g.element((1,)), g.element((1, 0))
        lhs = kl.inverse_kl_poly(z, y).shift(x.length - y.length)
        assert lhs == poly({2: 1})
        assert lhs == kl.inverse_kl_poly(z, x)


class TestScans:
    @pytest.mark.parametrize("spec", ["A2", "B2", "G2"])
    def test_expected_empty(self, spec):
        kl = get_kl(spec)
        count, violations = scan_monotonicity_inverse(kl)
        assert violations == [] and count > 0
        count, violations = scan_monotonicity_classical(kl)
        assert violations == [] and count > 0

    def test_infinite_dihedral_scan(self):
        kl = get_kl("I2(inf)", 8)
        assert scan_monotonicity_inverse(kl)[1] == []
        assert scan_monotonicity_classical(kl)[1] == []

    def test_antispherical_empty_subset_matches_inverse(self):
        kl = get_kl("B2")
        anti = ParabolicKLTable(ParabolicContext(kl.group, (), ANTISPHERICAL))
        assert scan_monotonicity_antispherical(anti) == \
            scan_monotonicity_inverse(kl)

    @pytest.mark.parametrize("subset", [(0,), (1,)])
    def test_antispherical_a3_singletons(self, subset):
        g = get_group("A3")
        anti = ParabolicKLTable(ParabolicContext(g, subset, ANTISPHERICAL))
        count, violations = scan_monotonicity_antispherical(anti)
        assert violations == [] and count > 0

    def test_spherical_chain_counterexample(self):
        g = get_group("A2")
        sph = ParabolicKLTable(ParabolicContext(g, {0}, SPHERICAL))
        count, violations = scan_monotonicity_spherical(sph)
        triple = (g.identity, g.element((1,)), g.element((1, 0)))
        assert triple in {(v.z, v.y, v.x) for v in violations}

    def test_spherical_empty_subset_is_clean(self):
        g = get_group("A2")
        sph = ParabolicKLTable(ParabolicContext(g, (), SPHERICAL))
        assert scan_monotonicity_spherical(sph)[1] == []

    def test_flavor_mismatch(self):
        g = get_group("A2")
        sph = ParabolicKLTable(ParabolicContext(g, {0}, SPHERICAL))
        anti = ParabolicKLTable(ParabolicContext(g, {0}, ANTISPHERICAL))
        with pytest.raises(FlavorMismatchError):
            scan_monotonicity_antispherical(sph)
        with pytest.raises(FlavorMismatchError):
            scan_monotonicity_spherical(anti)

    def test_violation_witness_invariant(self):
        g = get_group("A2")
        sph = ParabolicKLTable(ParabolicContext(g, {0}, SPHERICAL))
        _, violations = scan_monotonicity_spherical(sph)
        assert violations
        for v in violations:
            diff = v.rhs - v.lhs
            assert diff.coefficient(v.witness_exponent) < 0

    def test_repeat_calls_give_same_output(self):
        # a second call reads the memoized columns, a fresh table rebuilds
        g = get_group("A3")
        first = scan_monotonicity_inverse(get_kl("A3"))
        assert scan_monotonicity_inverse(get_kl("A3")) == first
        assert scan_monotonicity_inverse(KLTable(g)) == first

        def spherical():
            return ParabolicKLTable(ParabolicContext(g, {0, 1}, SPHERICAL))
        sph = spherical()
        first = scan_monotonicity_spherical(sph)
        assert first[1]
        assert scan_monotonicity_spherical(sph) == first
        assert scan_monotonicity_spherical(spherical()) == first

    def test_triples_enumerated_by_x_id(self):
        g = get_group("A3")
        sph = ParabolicKLTable(ParabolicContext(g, {0, 1}, SPHERICAL))
        _, violations = scan_monotonicity_spherical(sph)
        xs = [v.x.index for v in violations]
        assert xs == sorted(xs)


class TestChainDetection:
    def test_a2_chain(self):
        ctx = ParabolicContext(get_group("A2"), {0}, SPHERICAL)
        triples = chain_triples(ctx)
        g = ctx.group
        assert triples == [(g.identity, g.element((1,)), g.element((1, 0)))]

    def test_a3_wall_chain_has_two_triples(self):
        ctx = ParabolicContext(get_group("A3"), {0, 1}, SPHERICAL)
        triples = chain_triples(ctx)
        assert len(ctx.reps) == 4
        assert triples is not None and len(triples) == 2

    def test_non_chain_returns_none(self):
        ctx = ParabolicContext(get_group("A3"), {0, 2}, SPHERICAL)
        assert chain_triples(ctx) is None

    def test_type_a_wall_detection(self):
        assert is_type_a_wall_quotient(get_group("A2").matrix, {0})
        assert is_type_a_wall_quotient(get_group("A2").matrix, {1})
        assert is_type_a_wall_quotient(get_group("A3").matrix, {0, 1})
        assert is_type_a_wall_quotient(get_group("A3").matrix, {1, 2})
        assert not is_type_a_wall_quotient(get_group("A3").matrix, {0, 2})
        assert not is_type_a_wall_quotient(get_group("B2").matrix, {0})
        assert not is_type_a_wall_quotient(get_group("A3").matrix, {0})

    def test_mandate_marks_missing_triples(self):
        g = get_group("A2")
        ctx = ParabolicContext(g, {0}, SPHERICAL)
        res = CheckResult("scan-spherical", "A2", [1], SPHERICAL,
                          expected_violations=True)
        evaluate_spherical_mandate(res, ctx)  # no violations recorded
        assert not res.passed
        assert any("missing mandated" in f for f in res.failures)


class TestRouquier:
    def test_identity_table(self):
        kl = get_kl("A2")
        rt = rouquier_multiplicities(kl, kl.group.identity)
        assert rt.mult == {(kl.group.identity, 0): 1}

    def test_generator_table(self):
        kl = get_kl("A2")
        g = kl.group
        s = g.element((0,))
        rt = rouquier_multiplicities(kl, s)
        assert rt.mult == {(s, 0): 1, (g.identity, 1): 1}

    def test_rows_sorted_and_generating_poly(self):
        kl = get_kl("B2")
        x = kl.group.elements[-1]
        rt = rouquier_multiplicities(kl, x)
        rows = rt.rows()
        assert rows == sorted(rows, key=lambda r: (r[0].index, r[1]))
        for y in kl.group.downset(x):
            assert rt.generating_poly(y) == kl.inverse_kl_poly(y, x)

    @pytest.mark.parametrize("spec", ["A2", "B2"])
    def test_shadow_identity_exhaustive(self, spec):
        kl = get_kl(spec)
        for x in kl.group:
            assert next(rouquier_shadows(kl, [x]))

    def test_parity_support_invariant(self):
        kl = get_kl("A3")
        for x in kl.group:
            rt = rouquier_multiplicities(kl, x)
            for (y, i), m in rt.mult.items():
                assert m > 0
                assert i % 2 == (x.length - y.length) % 2
                assert kl.group.bruhat_leq(y, x)


class TestSuite:
    def test_a2_all_subsets_passes(self):
        report = run_identity_suite(
            "A2", [(), (0,), (1,), (0, 1)])
        assert report.passed
        names = {c.check for c in report.checks}
        assert {"positivity-kl", "positivity-invkl", "mu-nonnegative",
                "parity", "bar-invariance", "inversion-identity",
                "rouquier-shadow", "scan-classical", "scan-inverse",
                "soergel-identification", "parabolic-inversion-identity",
                "scan-antispherical", "scan-spherical"} <= names

    def test_spherical_check_passes_with_expected_violations(self):
        report = run_identity_suite("A2", [(0,)])
        sph = [c for c in report.checks if c.check == "scan-spherical"
               and c.subset == [1]]
        assert len(sph) == 1
        assert sph[0].passed and sph[0].violations
        assert sph[0].expected_violations

    def test_affine_suite(self):
        report = run_identity_suite("Aff-A1", [()], cap=6)
        assert report.passed

    def test_json_structure_and_determinism(self):
        """Encoded as the CLI encodes it, the indented encoder streaming
        the violations."""
        r1 = run_identity_suite("A2", [(0,)])
        r2 = run_identity_suite("A2", [(0,)])
        j1 = json.dumps(r1.to_json_obj(), indent=2, sort_keys=True)
        j2 = json.dumps(r2.to_json_obj(), indent=2, sort_keys=True)
        assert j1 == j2
        obj = json.loads(j1)
        assert obj["passed"] is True
        for check in obj["checks"]:
            assert {"check", "group", "I", "cap", "pairs_checked",
                    "passed", "violations"} <= set(check)
        (sph,) = [c for c in obj["checks"] if c["check"] == "scan-spherical"]
        assert len(sph["violations"]) == 2

    def test_text_lines_shape(self):
        report = run_identity_suite("A2", [()])
        lines = report.text_lines()
        assert lines[0].startswith("suite: group A2")
        assert lines[-1] == "suite result: PASS"
        assert all(l.startswith(("suite", "PASS", "FAIL", "    "))
                   for l in lines)
