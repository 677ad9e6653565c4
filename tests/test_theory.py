from itertools import product

import numpy as np
import pytest

from centauts import (
    AbelianType,
    ConditionSide,
    OracleSide,
    all_automorphisms,
    aut_fixing_quotient,
    aut_fixing_subgroup,
    autcent,
    center_fixing_autcent,
    direct_product,
    hom_order,
    lemma4_compare,
    theorem_condition,
    verify_attar,
    verify_corollary1,
    verify_lemma3,
    verify_lemma4_sweep,
    verify_proposition1,
    verify_theorem,
)
from centauts import abelian, theory
from centauts.corpus import (
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    heisenberg_group,
    metacyclic_group,
)
from centauts.errors import HypothesisViolated, InternalDisagreement, NotPGroup, WrongClass
from centauts.theory import build_factor_witness

from oracles import types_up_to


def d8():
    return dihedral_group(4)


def q8():
    return dicyclic_group(2)


class TestTheoremCondition:
    def test_d8_all_true(self):
        cond = theorem_condition(d8())
        assert cond.r_eq_s and cond.residual_iso and cond.exp_eq and cond.all_met

    def test_modular16_fails_exponent_equality(self):
        cond = theorem_condition(metacyclic_group(8, 2, 5))
        assert cond.r_eq_s and cond.residual_iso and not cond.exp_eq
        assert not cond.all_met

    def test_d8xc2_fails_rank_equality(self):
        cond = theorem_condition(direct_product(d8(), cyclic_group(2)))
        assert not cond.r_eq_s and not cond.all_met

    def test_residual_iso_implies_r_eq_s(self, groups):
        # the residual tuples have lengths r - k and s - k, so equal residuals
        # force r = s; rEqS never decides all_met on its own
        class2 = [
            g for g in groups.values()
            if g.p_group_prime() and not g.is_abelian() and g.nilpotency_class() == 2
        ]
        conditions = []
        for g in class2:
            inv = abelian.class_two_invariants(g)
            assert len(inv.z_residual.exps) == inv.r - inv.k, g.name
            assert len(inv.ab_residual.exps) == inv.s - inv.k, g.name
            cond = theorem_condition(g)
            assert cond.r_eq_s or not cond.residual_iso, g.name
            conditions.append((cond.r_eq_s, cond.residual_iso))
        assert {(True, True), (False, False)} <= set(conditions)
        assert len(class2) >= 25

    def test_wrong_class_rejected(self):
        with pytest.raises(WrongClass):
            theorem_condition(cyclic_group(4))
        with pytest.raises(WrongClass):
            theorem_condition(dihedral_group(8))

    def test_non_p_group_rejected(self):
        with pytest.raises(NotPGroup):
            theorem_condition(dihedral_group(3))


class TestVerifyTheorem:
    def test_d8_agrees_with_sets_equal(self):
        rep = verify_theorem(d8())
        assert rep.agree
        assert rep.oracle.autcent_equals_aut_zz
        assert rep.oracle.autcent_order == rep.oracle.aut_zz_order == 4

    def test_d8xq8_agrees_at_order_64(self):
        rep = verify_theorem(direct_product(d8(), q8()))
        assert rep.agree
        assert rep.condition.all_met
        assert rep.oracle.autcent_equals_aut_zz
        assert rep.oracle.autcent_order == 256

    def test_d8xc2_condition_false_and_sets_differ(self):
        rep = verify_theorem(direct_product(d8(), cyclic_group(2)))
        assert rep.agree
        assert not rep.condition.all_met
        assert not rep.oracle.autcent_equals_aut_zz
        assert rep.oracle.autcent_order > rep.oracle.aut_zz_order

    def test_equivalence_corpuswide(self, class2_corpus):
        for g in class2_corpus:
            rep = verify_theorem(g)
            assert rep.agree, g.name

    def test_sides_round_trip_through_json(self, class2_corpus):
        for g in class2_corpus:
            if g.n > 32:
                continue
            rep = verify_theorem(g)
            assert ConditionSide.from_json(rep.condition.to_json()) == rep.condition, g.name
            assert OracleSide.from_json(rep.oracle.to_json()) == rep.oracle, g.name

    def test_forced_disagreement_reports_a_counterexample(self, monkeypatch, capsys):
        # on D8xC2, Autcent != Aut^Z_Z; claiming the condition holds must
        # make the theorem check disagree and name a moved automorphism
        from centauts import analyze_group, catalog_group, emit_report
        from centauts.cli import main

        monkeypatch.setattr(
            theory, "theorem_condition", lambda group: ConditionSide(True, True, True)
        )
        g = catalog_group("D8xC2")
        report = analyze_group(g, ("theorem",))
        assert report.verdict == "COUNTEREXAMPLE"
        assert report.lemma_checks == {"theorem": "fail"}
        moved = report.witness["automorphism"]
        assert isinstance(moved, list) and all(type(v) is int for v in moved)
        ac = autcent(g)
        assert moved in ac
        assert moved not in aut_fixing_subgroup(g, g.center(), ac)
        assert '"verdict": "COUNTEREXAMPLE"' in emit_report([report], "json")
        rows = emit_report([report], "csv").splitlines()
        assert len(rows) == 2 and rows[1].startswith("D8xC2,theorem,16,2,2,True,True,True,True,")
        assert rows[1].endswith(",fail")
        assert main(["analyze", "D8xC2", "--check", "theorem"]) == 1
        assert '"verdict": "COUNTEREXAMPLE"' in capsys.readouterr().out


class TestProposition1:
    def test_d8_center_case(self):
        g = d8()
        rows = {r.target_members: r for r in verify_proposition1(g)}
        z = g.center().members
        assert rows[z].set_equal_inner and rows[z].condition and rows[z].agree

    def test_d8_trivial_case_both_false(self):
        g = d8()
        rows = {r.target_members: r for r in verify_proposition1(g)}
        triv = (g.identity,)
        assert not rows[triv].set_equal_inner and not rows[triv].condition
        assert rows[triv].agree

    def test_d8xq8_noncyclic_center_both_false(self):
        g = direct_product(d8(), q8())
        rows = {r.target_members: r for r in verify_proposition1(g)}
        z = g.center().members
        assert not rows[z].set_equal_inner and not rows[z].condition
        assert rows[z].agree

    def test_abelian_rejected(self):
        with pytest.raises(WrongClass):
            verify_proposition1(cyclic_group(4))

    def test_equivalence_small_corpus(self, nonabelian_corpus):
        for g in nonabelian_corpus:
            if g.n > 32:
                continue
            for row in verify_proposition1(g):
                assert row.agree, (g.name, row.target_members)


class TestCorollary1:
    def test_positive_cases(self):
        for g in (d8(), q8(), heisenberg_group(3)):
            rep = verify_corollary1(g)
            assert rep.autcent_equals_inn and rep.condition and rep.agree

    def test_d8xq8_fails_both_sides(self):
        rep = verify_corollary1(direct_product(d8(), q8()))
        assert not rep.autcent_equals_inn and not rep.condition and rep.agree

    def test_equivalence_corpuswide(self, nonabelian_corpus):
        for g in nonabelian_corpus:
            assert verify_corollary1(g).agree, g.name


class TestLemma3:
    def test_d8_sets_equal_implies_purely_nonabelian(self):
        rep = verify_lemma3(d8())
        assert rep.sets_equal and rep.purely_nonabelian and rep.agree

    def test_d8xc2_witness(self):
        rep = verify_lemma3(direct_product(d8(), cyclic_group(2)))
        assert not rep.sets_equal and not rep.purely_nonabelian
        assert rep.witness_valid and rep.agree
        assert rep.witness_moved_central is not None

    def test_q8xc4_witness(self):
        rep = verify_lemma3(direct_product(q8(), cyclic_group(4)))
        assert not rep.sets_equal and rep.witness_valid and rep.agree

    def test_witness_properties_explicit(self):
        g = direct_product(d8(), cyclic_group(2))
        z, f = build_factor_witness(g)
        assert g.element_orders()[z] == 2
        assert z in g.frattini_subgroup()
        from centauts import alpha_from_f, is_central_automorphism

        aut = alpha_from_f(g, f)
        assert aut is not None
        assert is_central_automorphism(g, aut)
        assert any(aut.images[u] != u for u in g.center().members)

    def test_abelian_rejected(self):
        with pytest.raises(WrongClass):
            verify_lemma3(cyclic_group(2))

    def test_implication_corpuswide(self, nonabelian_corpus):
        for g in nonabelian_corpus:
            assert verify_lemma3(g).agree, g.name


def _per_triple_sweep(p, max_exp):
    """(triples, failures) of ``lemma4_compare`` run on every ordered type triple."""
    types = types_up_to(p, max_exp)
    triples, failures = 0, []
    for a, b, c in product(types, repeat=3):
        try:
            lemma4_compare(a, b, c)
        except HypothesisViolated:
            continue
        except InternalDisagreement as exc:
            failures.append(str(exc))
        triples += 1
    return triples, failures


def _patch_hom_order(monkeypatch, p, hom):
    """Route both Hom-order routes to ``hom``: the scalar ``hom_order`` that
    ``lemma4_compare`` reads, and the sweep's table of exponent rows over p.

    The sweep only compares table entries, and ``p**x < p**y`` iff ``x < y``,
    so a table of the orders ``hom`` gives stands in for their exponents.
    """

    def table(exps):
        types = [AbelianType(p, tuple(filter(None, row))) for row in exps.tolist()]
        return np.array([[hom(x, c) for c in types] for x in types])

    monkeypatch.setattr(abelian, "hom_order", hom)
    monkeypatch.setattr(theory, "_hom_exponent_table", table)


class TestLemma4Sweep:
    @pytest.mark.parametrize("p", [2, 3])
    def test_small_sweeps_pass(self, p):
        sweep = verify_lemma4_sweep(p, 3)
        assert sweep.agree and sweep.triples_checked > 0

    def test_triple_counts_grow(self):
        small = verify_lemma4_sweep(2, 2)
        large = verify_lemma4_sweep(2, 3)
        assert large.triples_checked > small.triples_checked

    @pytest.mark.parametrize("p, max_exp", [(2, 5), (2, 7), (3, 4), (3, 5), (5, 4)])
    def test_same_triples_as_lemma4_compare(self, p, max_exp):
        sweep = verify_lemma4_sweep(p, max_exp)
        assert (sweep.triples_checked, list(sweep.failures)) == _per_triple_sweep(p, max_exp)

    @pytest.mark.parametrize("p, max_exp", [(2, 6), (3, 4), (5, 4)])
    def test_one_hom_table_and_no_scalar_hom_order(self, monkeypatch, p, max_exp):
        tables, scalar = [], []

        def counted_table(exps):
            tables.append(len(exps))
            return abelian._hom_exponent_table(exps)

        def counted_scalar(a, c):
            scalar.append((a, c))
            return hom_order(a, c)

        monkeypatch.setattr(theory, "_hom_exponent_table", counted_table)
        monkeypatch.setattr(abelian, "hom_order", counted_scalar)
        assert verify_lemma4_sweep(p, max_exp).agree
        assert tables == [len(types_up_to(p, max_exp))]
        assert scalar == []

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("max_exp", [0, 1])
    def test_no_dominated_pair_below_exponent_2(self, p, max_exp):
        sweep = verify_lemma4_sweep(p, max_exp)
        assert (sweep.triples_checked, sweep.failures) == (0, ())

    def test_one_wrong_hom_order_gives_the_per_triple_failure(self, monkeypatch):
        wrong = (AbelianType(2, (2, 1)), AbelianType(2, (2,)))

        def broken(a, c):
            return hom_order(a, c) * (2 if (a, c) == wrong else 1)

        _patch_hom_order(monkeypatch, 2, broken)
        sweep = verify_lemma4_sweep(2, 4)
        assert sweep.failures == (
            "threshold test and Hom comparison disagree for A=C4 x C2, B=C4 x C4, C=C4",
        )
        assert _per_triple_sweep(2, 4) == (sweep.triples_checked, list(sweep.failures))

    def test_a_low_hom_row_fails_on_every_c_below_the_threshold(self, monkeypatch):
        # C2 x C2 is below C4 x C2, C8 x C2 and C4 x C4, all with threshold 4.
        low = AbelianType(2, (1, 1))

        def broken(a, c):
            return hom_order(a, c) - (a == low)

        _patch_hom_order(monkeypatch, 2, broken)
        sweep = verify_lemma4_sweep(2, 4)
        assert _per_triple_sweep(2, 4) == (sweep.triples_checked, list(sweep.failures))
        below = [c for c in types_up_to(2, 4) if c.exponent() < 4]
        assert len(sweep.failures) == 3 * len(below)
        assert all(any(f.endswith(f"C={c}") for f in sweep.failures) for c in below)

    def test_failures_across_batches_keep_their_order(self, monkeypatch):
        # five pairs per batch; C2 x C2 lies below eight types at max_exp 6,
        # so its failures span batches, none of them the first
        low = AbelianType(2, (1, 1))

        def broken(a, c):
            return hom_order(a, c) - (a == low)

        _patch_hom_order(monkeypatch, 2, broken)
        types = len(types_up_to(2, 6))
        monkeypatch.setattr(theory, "_SWEEP_CELLS", 5 * types)
        sweep = verify_lemma4_sweep(2, 6)
        assert sweep.triples_checked > 2 * theory._SWEEP_CELLS
        assert len({f.split(", C=")[0] for f in sweep.failures}) == 8
        assert _per_triple_sweep(2, 6) == (sweep.triples_checked, list(sweep.failures))


class TestAttar:
    def test_abelian_case(self):
        rep = verify_attar(cyclic_group(4))
        assert rep.set_equal_inner and rep.abelian and rep.agree

    def test_d8(self):
        rep = verify_attar(d8())
        assert rep.set_equal_inner and rep.condition and rep.agree

    def test_d8xq8_fails_both_sides(self):
        rep = verify_attar(direct_product(d8(), q8()))
        assert not rep.set_equal_inner and not rep.condition and rep.agree

    def test_equivalence_corpuswide(self, corpus):
        for g in corpus:
            assert verify_attar(g).agree, g.name


def test_center_fixing_subset_is_monotone(corpus):
    for g in corpus:
        auts = all_automorphisms(g)
        ac = autcent(g)
        center = g.center()
        azz = aut_fixing_subgroup(g, center, aut_fixing_quotient(g, center, auts))
        assert azz.images_set <= ac.images_set, g.name
        assert center_fixing_autcent(g) == aut_fixing_subgroup(g, center, ac) == azz, g.name
        # for central M every automorphism acting trivially on G/M is central,
        # so filtering Autcent instead of the full Aut loses nothing
        for m_sub in center.all_subgroups():
            assert aut_fixing_quotient(g, m_sub, auts) == aut_fixing_quotient(
                g, m_sub, ac
            ), (g.name, m_sub.members)
            # so Aut^M_Z is Aut^Z_Z filtered by G/M, in the same row order
            assert aut_fixing_quotient(g, m_sub, center_fixing_autcent(g)) == aut_fixing_subgroup(
                g, center, aut_fixing_quotient(g, m_sub, ac)
            ), (g.name, m_sub.members)
