import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centauts import (
    AbelianType,
    class_two_invariants,
    enumerate_homs,
    from_cayley_table,
    hom_order,
    invariants,
    lemma4_compare,
)
from centauts import groups
from centauts.abelian import _census_type, _hom_count, _hom_exponent_table, _type_exponents
from centauts.corpus import (
    abelian_group,
    catalog,
    cyclic_group,
    dihedral_group,
    heisenberg_group,
    metacyclic_group,
)
from centauts.errors import (
    HypothesisViolated,
    NotAbelian,
    NotPGroup,
    PrimeMismatch,
    WrongClass,
)

from oracles import brute_force_hom_count, naive_element_order, order_census_hom_count, types_up_to


class TestAbelianType:
    def test_validation(self):
        with pytest.raises(HypothesisViolated):
            AbelianType(2, (1, 2))
        with pytest.raises(HypothesisViolated):
            AbelianType(2, (0,))
        with pytest.raises(NotPGroup):
            AbelianType(1, (1,))

    def test_order_and_exponent(self):
        t = AbelianType(3, (2, 1))
        assert t.order == 27 and t.exponent() == 9 and t.rank == 2
        assert AbelianType(2, ()).exponent() == 1


class TestInvariants:
    def test_trivial(self):
        assert invariants(from_cayley_table([[0]])).exps == ()

    def test_c2xc4(self):
        assert invariants(abelian_group([2, 4]), 2).exps == (2, 1)

    def test_klein_four(self):
        assert invariants(abelian_group([2, 2])).exps == (1, 1)

    def test_rejects_nonabelian(self):
        with pytest.raises(NotAbelian):
            invariants(dihedral_group(4))

    def test_rejects_non_p_group(self):
        with pytest.raises(NotPGroup):
            invariants(cyclic_group(6))
        with pytest.raises(NotPGroup):
            invariants(cyclic_group(9), 2)

    def test_census_rejects_an_exponent_not_a_power_of_p(self):
        with pytest.raises(NotPGroup, match="has exponent 6, not a power of 2"):
            _census_type(cyclic_group(6), 2)

    def test_cached_per_resolved_prime(self, monkeypatch):
        g = abelian_group([4, 2])
        reads = []
        powers = groups.Group.powers
        monkeypatch.setattr(groups.Group, "powers", lambda self: reads.append(self) or powers(self))
        assert invariants(g) is invariants(g, 2) is invariants(g)
        assert reads == [g]

    def test_a_raising_call_caches_nothing(self):
        d8, c6, c9 = dihedral_group(4), cyclic_group(6), cyclic_group(9)
        for _ in range(2):
            with pytest.raises(NotAbelian):
                invariants(d8)
            with pytest.raises(NotPGroup):
                invariants(c6)
            with pytest.raises(NotPGroup):
                invariants(c9, 2)
        assert invariants(c9).exps == (2,)

    def test_roundtrip_exhaustive(self, monkeypatch):
        # realize every type of total order exponent <= 6 over p in {2, 3},
        # order 729 included, so the element cap is raised past it
        monkeypatch.setattr(groups, "DEFAULT_ELEMENT_CAP", 729)
        for p in (2, 3):
            for t in types_up_to(p, 6):
                if t.is_trivial():
                    continue
                g = abelian_group([p**e for e in t.exps])
                assert invariants(g, p) == t, t

    def test_census_agrees_with_extraction(self):
        g = abelian_group([4, 2])
        table = g.mul.tolist()
        t = invariants(g, 2)
        for i in range(1, 4):
            count = sum(
                1 for x in range(g.n) if (2**i) % naive_element_order(table, x) == 0
            )
            assert count == 2 ** sum(min(a, i) for a in t.exps)


class TestHomOrder:
    def test_trivial_sides(self):
        t = AbelianType(2, (2, 1))
        e = AbelianType(2, ())
        assert hom_order(t, e) == 1 and hom_order(e, t) == 1

    def test_c2_to_c2(self):
        one = AbelianType(2, (1,))
        assert hom_order(one, one) == 2

    def test_mixed_rank_two_pair(self):
        assert hom_order(AbelianType(2, (2, 1)), AbelianType(2, (1, 1))) == 16

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatch):
            hom_order(AbelianType(2, (1,)), AbelianType(3, (1,)))

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from([2, 3]),
        a=st.lists(st.integers(1, 3), min_size=0, max_size=4),
        b=st.lists(st.integers(1, 3), min_size=0, max_size=4),
    )
    def test_symmetry(self, p, a, b):
        ta = AbelianType(p, tuple(sorted(a, reverse=True)))
        tb = AbelianType(p, tuple(sorted(b, reverse=True)))
        assert hom_order(ta, tb) == hom_order(tb, ta)

    def test_matches_brute_force_up_to_32(self):
        pairs = [(p, t) for p in (2, 3, 5) for t in types_up_to(p, 5) if t.order <= 32]
        for p, ta in pairs:
            ga = abelian_group([p**e for e in ta.exps]) if ta.exps else from_cayley_table([[0]])
            for q, tb in pairs:
                if q != p:
                    continue
                gb = abelian_group([q**e for e in tb.exps]) if tb.exps else from_cayley_table([[0]])
                expected = hom_order(ta, tb)
                assert expected == order_census_hom_count(ta.exps, p, gb.mul.tolist())
                if ga.n <= 8 and gb.n <= 8:
                    assert expected == brute_force_hom_count(ga.mul.tolist(), gb.mul.tolist())


class TestHomCount:
    """|Hom(A, M)| for finite abelian groups of any order, over their Sylow subgroups."""

    def test_mixed_orders_match_brute_force(self):
        groups = [from_cayley_table([[0]])] + [
            abelian_group(f) for f in ([2], [3], [4], [2, 2], [6], [2, 6], [12], [5])
        ]
        for a in groups:
            for m in groups:
                expected = brute_force_hom_count(a.mul.tolist(), m.mul.tolist())
                assert _hom_count(a, m) == expected, (a.name, m.name)

    def test_matches_the_search_on_the_catalog(self):
        # every catalog (G/Z, M <= Z) and (G^ab, Z) pair; a map into the
        # abelian M factors through the abelianization of G/Z
        for name, make in catalog().items():
            g = make()
            center = g.center()
            quotient = g.center_quotient().target
            source = quotient if quotient.is_abelian() else quotient.abelianization().target
            for sub in center.as_group().all_subgroups():
                m = g.subgroup(center.members[i] for i in sub.members).as_group()
                assert _hom_count(source, m) == len(enumerate_homs(quotient, m)), name
            ab, z = g.abelianization().target, center.as_group()
            assert _hom_count(ab, z) == len(enumerate_homs(ab, z)), name


def _assert_hom_exponents(table, types, p):
    """``p ** table[i, j] == hom_order(types[i], types[j])`` for every pair."""
    assert table.shape == (len(types), len(types))
    for x, row in zip(types, table.tolist()):
        assert [p**e for e in row] == [hom_order(x, c) for c in types]


class TestHomExponents:
    """``_hom_exponent_table``, the one log_p |Hom| kernel, against hom_order."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_hom_order_up_to_exponent_8(self, p):
        _assert_hom_exponents(_hom_exponent_table(_type_exponents(8)), types_up_to(p, 8), p)

    def test_dtype_holds_the_largest_entry(self):
        # 16 * 16 = 256 overflows uint8
        c2_16 = np.ones((1, 16), dtype=np.uint8)
        assert _hom_exponent_table(c2_16).tolist() == [[256]]

    def test_trivial_only(self):
        assert _hom_exponent_table(np.zeros((1, 1), dtype=np.uint8)).tolist() == [[0]]
        assert _hom_exponent_table(np.zeros((0, 1), dtype=np.uint8)).shape == (0, 0)


class TestTypeExponents:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("max_exp", range(13))
    def test_rows_are_the_oracle_types_in_order(self, p, max_exp):
        exps = _type_exponents(max_exp)
        types = types_up_to(p, max_exp)
        width = max(max_exp, 1)
        assert exps.dtype == np.uint8
        assert exps.tolist() == [list(t.exps) + [0] * (width - t.rank) for t in types]
        _assert_hom_exponents(_hom_exponent_table(exps), types, p)


class TestClassTwoInvariants:
    def test_d8(self):
        inv = class_two_invariants(dihedral_group(4))
        assert inv.z_type.exps == (1, 1)
        assert inv.ab_type.exps == (1, 1)
        assert inv.c == 1 and inv.k == 2
        assert inv.z_residual.is_trivial() and inv.ab_residual.is_trivial()
        assert inv.exp_center == 2 and inv.exp_commutator == 2

    def test_heisenberg_27(self):
        inv = class_two_invariants(heisenberg_group(3))
        assert inv.z_type.exps == (1, 1) and inv.ab_type.exps == (1, 1)
        assert inv.k == 2
        assert inv.exp_center == 3 and inv.exp_commutator == 3

    def test_modular_16(self):
        inv = class_two_invariants(metacyclic_group(8, 2, 5))
        assert inv.exp_center == 4 and inv.exp_commutator == 2

    def test_wrong_class(self):
        with pytest.raises(WrongClass):
            class_two_invariants(cyclic_group(4))
        with pytest.raises(WrongClass):
            class_two_invariants(dihedral_group(8))

    def test_not_p_group(self):
        with pytest.raises(NotPGroup):
            class_two_invariants(dihedral_group(3))

    def test_structural_invariants_corpuswide(self, class2_corpus):
        for g in class2_corpus:
            inv = class_two_invariants(g)
            assert inv.k >= 2, g.name
            assert inv.r <= inv.s, g.name
            for j in range(inv.r):
                assert inv.ab_type.exps[j] >= inv.z_type.exps[j], g.name
            # G/Z and the commutator subgroup share their exponent
            assert inv.z_type.exponent() == g.commutator_subgroup().exponent(), g.name


class TestHomGrowthComparison:
    def test_tie_below_threshold(self):
        out = lemma4_compare(
            AbelianType(2, (1,)), AbelianType(2, (2,)), AbelianType(2, (1,))
        )
        assert out.t == 1 and out.threshold == 4
        assert not out.strict and out.hom_a == out.hom_b == 2

    def test_strict_at_threshold(self):
        out = lemma4_compare(
            AbelianType(2, (1,)), AbelianType(2, (2,)), AbelianType(2, (2,))
        )
        assert out.strict and (out.hom_a, out.hom_b) == (2, 4)

    def test_two_factor_example(self):
        out = lemma4_compare(
            AbelianType(2, (1, 1)), AbelianType(2, (2, 1)), AbelianType(2, (2,))
        )
        assert out.t == 1 and out.threshold == 4
        assert out.strict and (out.hom_a, out.hom_b) == (4, 8)

    def test_trivial_c_never_strict(self):
        out = lemma4_compare(
            AbelianType(3, (1, 1)), AbelianType(3, (2, 1)), AbelianType(3, ())
        )
        assert not out.strict and out.hom_a == out.hom_b == 1

    def test_hypothesis_violations(self):
        a, b = AbelianType(2, (2,)), AbelianType(2, (1,))
        with pytest.raises(HypothesisViolated, match="domination"):
            lemma4_compare(a, b, AbelianType(2, (1,)))
        with pytest.raises(HypothesisViolated, match="strict"):
            lemma4_compare(a, a, AbelianType(2, (1,)))
        with pytest.raises(HypothesisViolated, match="length"):
            lemma4_compare(
                AbelianType(2, (1,)), AbelianType(2, (1, 1)), AbelianType(2, (1,))
            )
        with pytest.raises(HypothesisViolated, match="prime"):
            lemma4_compare(AbelianType(2, (1,)), AbelianType(3, (2,)), AbelianType(2, (1,)))
