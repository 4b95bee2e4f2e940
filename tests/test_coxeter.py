"""Coxeter systems: canonical words, products, descents, Bruhat order.

Cross-checked against two independent oracles: explicit permutation
arithmetic for type A, and the subword property for Bruhat order.
"""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from kllab.coxeter import (
    INFINITY, CapExceededError, CoxeterMatrix, CoxeterSpecError, GroupTable,
    ResourceLimitError, canonical_form, parse_coxeter_spec, parse_matrix_file,
    render_word,
)
from kllab.hecke import HeckeElt
from helpers import (
    ReferenceGroupTable, SymmetricOracle, bruhat_leq_oracle, get_group,
)


class TestParseSpec:
    def test_a2(self):
        m = parse_coxeter_spec("A2")
        assert m.rank == 2 and m.order(0, 1) == 3

    def test_i2_inf(self):
        m = parse_coxeter_spec("I2(inf)")
        assert m.rank == 2 and m.order(0, 1) == INFINITY

    def test_g2(self):
        m = parse_coxeter_spec("G2")
        assert m.rank == 2 and m.order(0, 1) == 6

    def test_presets_shape(self):
        assert parse_coxeter_spec("B3").order(1, 2) == 4
        assert parse_coxeter_spec("B3").order(0, 1) == 3
        assert parse_coxeter_spec("F4").order(1, 2) == 4
        assert parse_coxeter_spec("H3").order(0, 1) == 5
        d4 = parse_coxeter_spec("D4")
        assert sorted(d4.order(i, j) for i in range(4) for j in range(i + 1, 4)) \
            == [2, 2, 2, 3, 3, 3]
        e6 = parse_coxeter_spec("E6")
        degrees = sorted(sum(1 for j in range(6) if i != j
                             and e6.order(i, j) == 3) for i in range(6))
        assert degrees == [1, 1, 1, 2, 2, 3]  # one branch node
        assert e6.is_finite()
        assert parse_coxeter_spec("Aff-A1").order(0, 1) == INFINITY

    @pytest.mark.parametrize("bad", ["Z9", "A0", "I2(1)", "I2(0)", "B1", "",
                                     "H5"])
    def test_unknown_specs(self, bad):
        with pytest.raises(CoxeterSpecError):
            parse_coxeter_spec(bad)

    def test_matrix_file(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("rank 3\n1 2 3\n2 3 inf\n")
        m = parse_coxeter_spec(f"file:{path}")
        assert m.order(0, 1) == 3
        assert m.order(1, 2) == INFINITY
        assert m.order(0, 2) == 2  # unspecified pairs default to 2

    @pytest.mark.parametrize("text", [
        "1 2 3\n",                 # missing rank line
        "ranking 2\n1 2 3\n",      # header word other than 'rank'
        "rank 2 7\n1 2 3\n",       # header with a third token
        "rank 2\n1 1 3\n",         # diagonal pair
        "rank 2\n1 2 1\n",         # order below 2
        "rank 2\n1 3 3\n",         # index out of range
        "rank 2\n1 2 3\n2 1 4\n",  # conflicting symmetric entries
        "rank 2\n1 2 x\n",
    ])
    def test_matrix_file_errors(self, text):
        with pytest.raises(CoxeterSpecError):
            parse_matrix_file(text)

    def test_matrix_validation(self):
        with pytest.raises(CoxeterSpecError):
            CoxeterMatrix([[1, 3], [2, 1]])  # asymmetric
        with pytest.raises(CoxeterSpecError):
            CoxeterMatrix([[2]])  # bad diagonal

    def test_finiteness(self, tmp_path):
        a2_x_b2 = tmp_path / "a2xb2.txt"
        a2_x_b2.write_text("rank 4\n1 2 3\n3 4 4\n")
        hyperbolic = tmp_path / "hyperbolic.txt"
        hyperbolic.write_text("rank 3\n1 2 7\n2 3 3\n")
        for spec in ["A3", "B3", "D4", "F4", "G2", "H3", "H4", "I2(7)",
                     "A1", "B5", "D5", "E6", "E7", "E8", "I2(30000)",
                     f"file:{a2_x_b2}"]:
            assert parse_coxeter_spec(spec).is_finite(), spec
        for spec in ["I2(inf)", "Aff-A1", "Aff-A2", f"file:{hyperbolic}"]:
            assert not parse_coxeter_spec(spec).is_finite(), spec

    @pytest.mark.parametrize("bonds", [
        {(0, 1): 3, (1, 2): 4, (2, 3): 3, (3, 4): 3},       # affine F4
        {(0, 1): 4, (1, 2): 4},                             # affine C2
        {(0, 1): 3, (1, 2): 5, (2, 3): 3},                  # 5 inside
        {(0, 1): 5, (1, 2): 3, (2, 3): 3, (3, 4): 3},       # H5
        {(0, 1): 3, (1, 2): 3, (1, 3): 3, (1, 4): 3},       # affine D4
        {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3,
         (2, 5): 3, (5, 6): 3},                             # affine E6
        {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3,
         (5, 6): 3, (6, 7): 3, (2, 8): 3},                  # affine E8
    ])
    def test_infinite_near_misses(self, bonds):
        rank = 1 + max(max(pair) for pair in bonds)
        m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        for (i, j), order in bonds.items():
            m[i][j] = m[j][i] = order
        assert not CoxeterMatrix(m).is_finite()

    def test_finiteness_agrees_with_enumeration_in_rank_3(self):
        # a finite rank-3 group has at most 120 elements and length <= 15,
        # so the enumeration closes below cap 16 exactly when W is finite
        for orders in itertools.product([2, 3, 4, 5, 6, INFINITY], repeat=3):
            m = [[1, orders[0], orders[1]],
                 [orders[0], 1, orders[2]],
                 [orders[1], orders[2], 1]]
            matrix = CoxeterMatrix(m)
            try:
                closed = GroupTable(matrix, 16, max_elements=130).is_complete()
            except ResourceLimitError:
                closed = False
            assert matrix.is_finite() == closed, orders


class TestCanonicalForm:
    def test_braid_identified(self):
        m = parse_coxeter_spec("A2")
        assert canonical_form([0, 1, 0], m) == canonical_form([1, 0, 1], m)

    def test_involution_cancels(self):
        m = parse_coxeter_spec("A2")
        assert canonical_form([0, 0], m) == ()

    def test_non_reduced_word(self):
        # s1 s2 s1 s2 in A2; the S3 oracle pins the value
        oracle = SymmetricOracle(3)
        target = oracle.word_to_perm([0, 1, 0, 1])
        assert oracle.length(target) == 2
        assert target == oracle.word_to_perm([1, 0])
        m = parse_coxeter_spec("A2")
        assert canonical_form([0, 1, 0, 1], m) == (1, 0)

    def test_out_of_range_letter(self):
        with pytest.raises(CoxeterSpecError):
            canonical_form([5], parse_coxeter_spec("A2"))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2), max_size=10), st.data())
    def test_invariant_under_braid_moves_and_insertion(self, word, data):
        # property: the canonical form is constant on braid classes and on
        # inserting an s*s pair anywhere
        m = parse_coxeter_spec("B3")
        base = canonical_form(word, m)
        pos = data.draw(st.integers(0, len(word)))
        s = data.draw(st.integers(0, 2))
        padded = word[:pos] + [s, s] + word[pos:]
        assert canonical_form(padded, m) == base
        # apply one braid move if any position admits one
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            mm = m.order(a, b)
            if a != b and mm != INFINITY and i + mm <= len(word):
                pattern = [a if k % 2 == 0 else b for k in range(mm)]
                if word[i:i + mm] == pattern:
                    swapped = word[:i] + [b if k % 2 == 0 else a
                                          for k in range(mm)] + word[i + mm:]
                    assert canonical_form(swapped, m) == base
                    break

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2), max_size=12))
    def test_idempotent(self, word):
        m = parse_coxeter_spec("A3")
        once = canonical_form(word, m)
        assert canonical_form(once, m) == once


class TestAgainstSymmetricOracle:
    """Exhaustive comparison of A2/A3 with explicit permutations."""

    @pytest.mark.parametrize("spec,n", [("A2", 3), ("A3", 4)])
    def test_group_bijection_and_lengths(self, spec, n):
        table = get_group(spec)
        oracle = SymmetricOracle(n)
        seen = {}
        for el in table:
            perm = oracle.word_to_perm(el.word)
            assert oracle.length(perm) == el.length
            seen[perm] = el
        assert len(seen) == len(oracle.all_elements())

    @pytest.mark.parametrize("spec,n", [("A2", 3), ("A3", 4)])
    def test_products_and_descents(self, spec, n):
        table = get_group(spec)
        oracle = SymmetricOracle(n)
        for el in table:
            perm = oracle.word_to_perm(el.word)
            assert table.descents(el, "right") == oracle.right_descents(perm)
            assert table.descents(el, "left") == oracle.left_descents(perm)
            for s in range(n - 1):
                rs = oracle.compose(perm, oracle.gen(s))
                ls = oracle.compose(oracle.gen(s), perm)
                assert oracle.word_to_perm(
                    table.mult_gen(el, s, "right").word) == rs
                assert oracle.word_to_perm(
                    table.mult_gen(el, s, "left").word) == ls

    def test_specific_products(self):
        table = get_group("A2")
        e = table.identity
        s1 = table.element((0,))
        assert table.mult_gen(e, 0, "right") == s1
        assert table.mult_gen(s1, 0, "right") == e
        s1s2 = table.element((0, 1))
        w0 = table.mult_gen(s1s2, 0, "right")
        assert w0.word == (0, 1, 0)

    def test_descent_examples(self):
        table = get_group("A2")
        assert table.descents(table.identity, "right") == frozenset()
        s1 = table.element((0,))
        assert table.descents(s1, "right") == {0}
        assert table.descents(s1, "left") == {0}
        s1s2 = table.element((0, 1))
        assert table.descents(s1s2, "right") == {1}
        assert table.descents(s1s2, "left") == {0}

    def test_length_changes_by_one(self):
        table = get_group("B3")
        for el in table:
            for s in range(3):
                try:
                    prod = table.mult_gen(el, s, "right")
                except CapExceededError:
                    continue
                assert abs(prod.length - el.length) == 1

    def test_inverse_matches_oracle(self):
        table = get_group("A3")
        oracle = SymmetricOracle(4)
        for el in table:
            perm = oracle.word_to_perm(el.word)
            inv = [0] * 4
            for i, v in enumerate(perm):
                inv[v] = i
            assert oracle.word_to_perm(table.inverse(el).word) == tuple(inv)


class TestEnumeration:
    @pytest.mark.parametrize("spec,cap,count", [
        ("A2", 3, 6), ("A2", None, 6), ("B2", 4, 8), ("B2", 9, 8),
        ("I2(inf)", 5, 11), ("G2", None, 12), ("A3", None, 24),
        # Aff-A2 value from a Cayley BFS over affine permutations in window
        # notation: 1, 3, 6, 9, 12 elements at lengths 0..4
        ("B3", None, 48), ("H3", None, 120), ("Aff-A2", 4, 31),
    ])
    def test_counts(self, spec, cap, count):
        assert len(get_group(spec, cap)) == count

    def test_id_order_is_length_then_shortlex(self):
        table = get_group("A3")
        keys = [el.index for el in table]
        assert keys == sorted(keys)
        assert all(el.index == i for i, el in enumerate(table))

    def test_cap_exceeded_error(self):
        table = get_group("I2(inf)", 5)
        top = table.elements[-1]
        missing = s = None
        for s in range(2):
            if s not in table.descents(top, "right"):
                missing = s
        with pytest.raises(CapExceededError):
            table.mult_gen(top, missing, "right")

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            GroupTable(parse_coxeter_spec("I2(inf)"), 50, max_elements=20)

    def test_element_render_and_identity(self):
        table = get_group("A2")
        assert render_word(table.identity.word) == "e"
        assert render_word(table.element((0, 1)).word) == "1,2"


class TestBruhat:
    @pytest.mark.parametrize("spec", ["A2", "B2", "A3"])
    def test_matches_subword_oracle_exhaustively(self, spec):
        table = get_group(spec)
        for x in table:
            for y in table:
                assert table.bruhat_leq(x, y) == bruhat_leq_oracle(table, x, y)

    def test_examples(self):
        table = get_group("A2")
        e = table.identity
        s1, s2 = table.element((0,)), table.element((1,))
        s2s1 = table.element((1, 0))
        for x in table:
            assert table.bruhat_leq(e, x)
            assert table.bruhat_leq(x, x)
        assert not table.bruhat_leq(s1, s2)
        assert table.bruhat_leq(s1, s2s1)

    def test_partial_order_axioms_on_a3(self):
        table = get_group("A3")
        els = list(table)
        for x in els:
            for y in els:
                if table.bruhat_leq(x, y) and table.bruhat_leq(y, x):
                    assert x == y
        # transitivity over comparable chains
        for x in els:
            for y in table.downset(x):
                for z in table.downset(y):
                    assert table.bruhat_leq(z, x)

    def test_downset_sorted(self):
        table = get_group("B2")
        w0 = table.elements[-1]
        down = table.downset(w0)
        assert list(down) == sorted(down, key=lambda el: el.index)
        assert len(down) == 8

    def test_infinite_dihedral_pairs(self):
        table = get_group("I2(inf)", 6)
        for x in table:
            for y in table:
                expected = x.length < y.length or x == y
                assert table.bruhat_leq(x, y) == expected


class TestMinCosetReps:
    def test_empty_subset_is_everything(self):
        table = get_group("A2")
        assert table.min_coset_reps(()) == tuple(table)

    def test_a2_singleton(self):
        table = get_group("A2")
        reps = table.min_coset_reps((0,))
        assert [render_word(r.word) for r in reps] == ["e", "2", "2,1"]

    def test_full_subset_finite(self):
        table = get_group("A2")
        assert table.min_coset_reps((0, 1)) == (table.identity,)

    @pytest.mark.parametrize("spec,n", [("A2", 3), ("A3", 4)])
    def test_oracle_no_reduced_word_starts_in_subset(self, spec, n):
        table = get_group(spec)
        oracle = SymmetricOracle(n)
        for subset in itertools.chain.from_iterable(
                itertools.combinations(range(n - 1), k) for k in range(n)):
            reps = set(table.min_coset_reps(subset))
            for el in table:
                perm = oracle.word_to_perm(el.word)
                words = oracle.reduced_words(perm) or [()]
                starts_in_i = any(w and w[0] in subset for w in words)
                assert (el in reps) == (not starts_in_i)

    def test_coset_count_divides(self):
        table = get_group("B3")
        reps = table.min_coset_reps((0,))
        assert len(table) % len(reps) == 0
        assert len(reps) == 24


@st.composite
def coxeter_matrices(draw, max_rank=4):
    rank = draw(st.integers(1, max_rank))
    m = [[1] * rank for _ in range(rank)]
    for i, j in itertools.combinations(range(rank), 2):
        m[i][j] = m[j][i] = draw(st.sampled_from([2, 3, 4, 5, 6, INFINITY]))
    return CoxeterMatrix(m)


class TestAgainstBraidClosure:
    """The integer tables against the braid-closure enumeration."""

    @settings(max_examples=60, deadline=None)
    @given(coxeter_matrices(), st.integers(0, 6), st.data())
    def test_tables_match_reference(self, matrix, cap, data):
        table = GroupTable(matrix, cap)
        ref = ReferenceGroupTable(matrix, cap)
        assert [el.word for el in table] == ref.words
        assert all(el.index == i and el.length == len(w)
                   for i, (el, w) in enumerate(zip(table, ref.words)))
        assert table.right.tolist() == ref.right
        assert table.left.tolist() == ref.left
        assert table.right_descents.tolist() == ref.right_descents
        assert table.left_descents.tolist() == ref.left_descents
        assert table.inverses.tolist() == ref.inverses
        assert table.is_complete() == ref.complete
        for x in table:
            gens = range(matrix.rank)
            assert table.descents(x, "right") == {
                s for s in gens if ref.right_descents[x.index][s]}
            assert table.descents(x, "left") == {
                s for s in gens if ref.left_descents[x.index][s]}
            assert table.downset_ids(x).tolist() == ref.downset(x.index)
        # any word, reduced or not, inside the cap or beyond it
        word = tuple(data.draw(st.lists(st.integers(0, matrix.rank - 1),
                                        max_size=cap + 3)))
        c = canonical_form(word, matrix)
        assert table.canonical(word) == c
        if len(c) <= cap:
            assert table.element(word).word == c
        else:
            with pytest.raises(CapExceededError):
                table.element(word)


class TestLargeDihedral:
    def test_i2_30000_in_bounded_memory(self):
        tracemalloc.start()
        try:
            table = GroupTable(parse_coxeter_spec("I2(30000)"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 60_000
        assert table.longest_length() == 30_000
        assert table.is_complete()
        assert peak < 200 * 2**20, peak

    def test_element_bound_still_applies(self, monkeypatch):
        monkeypatch.setenv("KLLAB_MAX_ELEMENTS", "1000")
        with pytest.raises(ResourceLimitError):
            GroupTable(parse_coxeter_spec("I2(30000)"))


class TestElementIdentity:
    def test_equality_hash_and_order_by_index(self):
        table = get_group("B3")
        els = list(table)
        for x in els:
            assert x == table.elements[x.index] and hash(x) == x.index
            assert table.element(x.word) is x
        assert els[5] != els[6] and els[5] < els[6]
        assert sorted(reversed(els)) == els

    def test_elements_of_two_tables(self):
        a = GroupTable(parse_coxeter_spec("A2"))
        b = GroupTable(parse_coxeter_spec("A2"))
        x, y = a.element((0, 1)), b.element((0, 1))
        # same id in two tables of one group: equal elements, but the
        # vectors live in different modules
        assert x == y and hash(x) == hash(y)
        assert HeckeElt.standard(a, x) != HeckeElt.standard(b, y)
        assert HeckeElt.standard(a, x) == HeckeElt.standard(a, x)

    def test_word_calls(self):
        table = get_group("A3")
        x = table.element((1, 0, 1))
        assert x.word == (0, 1, 0) and render_word(x.word) == "1,2,1"
        assert table.element([2, 0, 0, 1, 1]) == table.element((2,))
        assert repr(x) == "<1,2,1>"
        capped = get_group("I2(inf)", 2)
        # leaves the cap on the way and comes back
        assert capped.element((0, 1, 0, 0, 1, 1)).word == (0, 1)
        with pytest.raises(CapExceededError,
                           match="element 1,2,1 of length 3"):
            capped.element((0, 1, 0))
        with pytest.raises(CoxeterSpecError):
            table.element((3,))
