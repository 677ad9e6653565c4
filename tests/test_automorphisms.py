import numpy as np
import pytest

from centauts import (
    AbelianType,
    AutSet,
    all_automorphisms,
    alpha_from_f,
    aut_fixing_quotient,
    aut_fixing_subgroup,
    autcent,
    center_fixing_autcent,
    direct_product,
    enumerate_homs,
    from_cayley_table,
    hom_from_automorphism,
    hom_order,
    homs_to_central_subgroup,
    inner_automorphisms,
    invariants,
    is_central_automorphism,
    is_purely_nonabelian,
    minimal_generating_set,
    verify_lemma0,
    verify_lemma0a,
)
from centauts.automorphisms import Automorphism, _factor_element
from centauts.oracle import _generator_chain, _search_generating_set
from centauts.corpus import (
    abelian_group,
    catalog,
    catalog_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    heisenberg_group,
)
from centauts.errors import (
    BudgetExceeded,
    HypothesisViolated,
    NotCentral,
    NotNormal,
    NotPGroup,
    NotPurelyNonabelian,
)

from oracles import (
    is_abelian_subgroup,
    naive_all_automorphisms,
    naive_alpha,
    naive_fixing_quotient,
    naive_fixing_subgroup,
    relabel,
    relabelled_group,
)


class TestMinimalGeneratingSet:
    def test_cyclic_needs_one(self):
        assert len(minimal_generating_set(cyclic_group(4))) == 1

    def test_d8_needs_two(self):
        assert len(minimal_generating_set(dihedral_group(4))) == 2

    def test_elementary_abelian_rank_three(self):
        assert len(minimal_generating_set(abelian_group([2, 2, 2]))) == 3

    def test_not_p_group(self):
        with pytest.raises(NotPGroup):
            minimal_generating_set(cyclic_group(6))

    def test_generates(self):
        g = dicyclic_group(2)
        gens = minimal_generating_set(g)
        assert len(g.subgroup_generated(gens)) == g.n


class TestAllAutomorphisms:
    def test_c2_has_one(self):
        assert len(all_automorphisms(cyclic_group(2))) == 1

    def test_trivial_group(self):
        assert len(all_automorphisms(from_cayley_table([[0]]))) == 1

    def test_q8_has_24_and_matches_bruteforce(self):
        g = dicyclic_group(2)
        auts = all_automorphisms(g)
        assert len(auts) == 24
        assert [a.images for a in auts] == naive_all_automorphisms(g.mul.tolist())

    def test_d8_has_8_and_matches_bruteforce(self):
        g = dihedral_group(4)
        auts = all_automorphisms(g)
        assert len(auts) == 8
        assert [a.images for a in auts] == naive_all_automorphisms(g.mul.tolist())

    def test_relabelled_non_p_group(self):
        # for seeds 14, 19 and 31 the greedy generating set of the relabelled
        # D12 is an element of order 3 followed by two involutions that alone
        # generate D12: sorted by order, the order-3 generator is redundant
        d12 = dihedral_group(6).mul.tolist()
        for seed in range(40):
            perm = np.random.default_rng(seed).permutation(12).tolist()
            assert len(all_automorphisms(from_cayley_table(relabel(d12, perm)))) == 12, seed

    def test_closed_under_composition_and_inverse(self):
        for g in (dihedral_group(4), dicyclic_group(2), abelian_group([4, 2])):
            auts = all_automorphisms(g)
            for a in auts.tables:
                assert a.argsort() in auts
                # a[b] is a after b; composing with a permutes the group
                assert {tuple(ab) for ab in a[auts.tables].tolist()} == auts.images_set

    def test_budget_exceeded(self):
        g = dihedral_group(4, name="D8-budget")
        with pytest.raises(BudgetExceeded, match="budget"):
            all_automorphisms(g, budget=3)

    def test_deterministic(self):
        a = all_automorphisms(dihedral_group(4))
        b = all_automorphisms(dihedral_group(4))
        assert [x.images for x in a] == [x.images for x in b]


def _assert_chain_covers_each_product_once(group, gens):
    """Level i computes each x * gens[s] with x in H_i, s <= i, and x or s new
    at level i exactly once, as a defining product or as a relation."""
    known = {group.identity}
    levels = _generator_chain(group, gens)
    for i, (old, new, relations) in enumerate(levels):
        assert sorted(old) == sorted(known)
        members = known | {t for t, _, _ in new}
        assert len(members) == len(known) + len(new)
        assert sorted(members) == group.closure(gens[: i + 1])
        assert all(group.mul[x, gens[s]] == t for t, x, s in new)
        assert all(group.mul[x, gens[s]] == t for x, s, t in relations)
        computed = [(x, s) for _, x, s in new] + [(x, s) for x, s, _ in relations]
        expected = {(x, s) for x in members for s in range(i + 1) if x not in known or s == i}
        assert len(computed) == len(expected) and set(computed) == expected
        if gens[i] not in known:
            # gens[i] is irredundant: every old x * gens[i] is a new element
            assert all(x not in known for x, _, _ in relations)
        known = members
    return levels


def test_generator_chain_computes_each_product_once():
    for name, make in catalog().items():
        group = make()
        for source in (group, group.abelianization().target, group.center_quotient().target):
            gens = _search_generating_set(source)
            assert all(
                gens[i] not in source.closure(gens[:i]) for i in range(len(gens))
            ), name
            _assert_chain_covers_each_product_once(source, gens)
    # 2 already lies in <1>: the relation identity * 2 = 2 pins its image
    levels = _assert_chain_covers_each_product_once(cyclic_group(4), [1, 2])
    assert (0, 1, 2) in levels[1][2] and not levels[1][1]


class TestInnerAutomorphisms:
    def test_abelian_only_identity(self):
        inn = inner_automorphisms(abelian_group([2, 4]))
        assert inn.tables.tolist() == [list(range(8))]

    def test_d8_has_four(self):
        assert len(inner_automorphisms(dihedral_group(4))) == 4

    def test_heisenberg_has_nine(self):
        assert len(inner_automorphisms(heisenberg_group(3))) == 9

    def test_index_formula_corpuswide(self, corpus):
        for g in corpus:
            assert len(inner_automorphisms(g)) == g.n // len(g.center()), g.name


class TestCentrality:
    def test_identity_is_central(self):
        g = dihedral_group(4)
        ident = Automorphism(g, tuple(range(g.n)))
        assert is_central_automorphism(g, ident)

    def test_inner_of_class_two_group_is_central(self):
        g = dihedral_group(4)
        for a in inner_automorphisms(g):
            assert is_central_automorphism(g, a)

    def test_triple_cycle_outer_of_q8_is_not_central(self):
        g = dicyclic_group(2)
        identity = tuple(range(g.n))
        order_three = [
            a
            for a in all_automorphisms(g)
            if a.images != identity
            and tuple(a.images[a.images[a.images[x]]] for x in identity) == identity
        ]
        assert order_three, "Q8 has automorphisms of order 3"
        for a in order_three:
            assert not is_central_automorphism(g, a)

    def test_inn_inside_autcent_iff_class_at_most_two(self, corpus):
        for g in corpus:
            inn = inner_automorphisms(g)
            ac = autcent(g)
            assert (inn.images_set <= ac.images_set) == (g.nilpotency_class() <= 2), g.name


class TestAutcent:
    def test_d8_equals_inn(self):
        g = dihedral_group(4)
        assert autcent(g) == inner_automorphisms(g)
        assert len(autcent(g)) == 4

    def test_q8_size_four(self):
        assert len(autcent(dicyclic_group(2))) == 4

    def test_d8xq8_matches_hom_order(self):
        g = direct_product(dihedral_group(4), dicyclic_group(2))
        ac = autcent(g)
        expected = hom_order(
            invariants(g.abelianization().target, 2),
            invariants(g.center().as_group(), 2),
        )
        assert expected == 2**8
        assert len(ac) == expected


class TestFixingFilters:
    def test_quotient_by_whole_group_keeps_all(self):
        g = dihedral_group(4)
        auts = all_automorphisms(g)
        assert aut_fixing_quotient(g, g.subgroup(range(g.n)), auts) == auts

    def test_quotient_by_trivial_keeps_identity_only(self):
        g = dihedral_group(4)
        auts = all_automorphisms(g)
        kept = aut_fixing_quotient(g, g.trivial_subgroup(), auts)
        assert kept.tables.tolist() == [list(range(g.n))]

    def test_d8_center_quotient_keeps_four(self):
        g = dihedral_group(4)
        kept = aut_fixing_quotient(g, g.center(), all_automorphisms(g))
        assert len(kept) == 4

    def test_rejects_non_normal(self):
        g = dihedral_group(4)
        orders = g.element_orders()
        z = [m for m in g.center().members if m != g.identity][0]
        refl = next(x for x in range(8) if orders[x] == 2 and x != z)
        with pytest.raises(NotNormal):
            aut_fixing_quotient(g, g.subgroup_generated([refl]), all_automorphisms(g))

    def test_only_a_non_central_kernel_is_walked(self, monkeypatch):
        # a central kernel is normal, so only the others need a normality witness
        g = dihedral_group(4)
        auts = all_automorphisms(g)
        walked = []
        monkeypatch.setattr(
            "centauts.groups.Subgroup.normality_witness", lambda sub: walked.append(sub)
        )
        for kernel in g.center().all_subgroups():
            aut_fixing_quotient(g, kernel, auts)
        assert walked == []
        rotations = g.subgroup_generated([x for x in range(8) if g.element_orders()[x] == 4])
        aut_fixing_quotient(g, rotations, auts)
        assert walked == [rotations]

    def test_fixing_trivial_subgroup_keeps_all(self):
        g = dihedral_group(4)
        auts = all_automorphisms(g)
        assert aut_fixing_subgroup(g, g.trivial_subgroup(), auts) == auts

    def test_fixing_whole_group_keeps_identity(self):
        g = dihedral_group(4)
        kept = aut_fixing_subgroup(g, g.subgroup(range(g.n)), all_automorphisms(g))
        assert len(kept) == 1

    def test_every_d8_automorphism_fixes_the_center(self):
        g = dihedral_group(4)
        kept = aut_fixing_subgroup(g, g.center(), all_automorphisms(g))
        assert len(kept) == 8


class TestCentralHoms:
    def test_trivial_target_gives_zero_map(self):
        g = dihedral_group(4)
        homs = homs_to_central_subgroup(g, g.trivial_subgroup())
        assert len(homs) == 1 and set(homs[0]) == {g.identity}

    def test_d8_center_has_four(self):
        g = dihedral_group(4)
        homs = homs_to_central_subgroup(g, g.center())
        assert len(homs) == 4
        assert len(homs) == hom_order(
            invariants(g.abelianization().target, 2), AbelianType(2, (1,))
        )

    def test_q8_center_has_four(self):
        q8 = dicyclic_group(2)
        assert len(homs_to_central_subgroup(q8, q8.center())) == 4

    def test_rejects_non_central_target(self):
        g = dihedral_group(4)
        orders = g.element_orders()
        z = [m for m in g.center().members if m != g.identity][0]
        refl = next(x for x in range(8) if orders[x] == 2 and x != z)
        with pytest.raises(NotCentral):
            homs_to_central_subgroup(g, g.subgroup_generated([refl]))

    def test_kill_commutators(self, corpus):
        for g in corpus:
            if g.n > 32:
                continue
            gamma2 = g.commutator_subgroup()
            for f in homs_to_central_subgroup(g, g.center()):
                assert all(f[c] == g.identity for c in gamma2.members), g.name

    def test_every_table_is_a_homomorphism_into_its_target(self, corpus):
        # f(xy) = f(x) f(y) on every pair (x, y) of the table, not on generators
        for g in corpus:
            if g.n > 32:
                continue
            for m in g.center().all_subgroups():
                for f in homs_to_central_subgroup(g, m):
                    assert set(f) <= m.member_set, (g.name, m.members, f)
                    fa = np.array(f)
                    products = g.mul[fa[:, None], fa[None, :]]
                    assert np.array_equal(fa[g.mul], products), (g.name, m.members, f)

    def test_enumeration_matches_hom_order(self, corpus):
        for g in corpus:
            if g.n > 32 or not g.is_abelian():
                continue
            for h in (cyclic_group(g.p_group_prime()), g):
                tables = enumerate_homs(g, h)
                expected = hom_order(
                    invariants(g, g.p_group_prime()), invariants(h, g.p_group_prime())
                )
                assert len(tables) == expected, (g.name, h.name)


class TestHomSearchBudget:
    def test_error_names_the_group_fresh_and_cached(self):
        g = dihedral_group(4, name="D8")
        for call in (
            lambda b: homs_to_central_subgroup(g, g.center(), b),
            lambda b: autcent(g, b),
        ):
            with pytest.raises(BudgetExceeded, match=r"^homomorphism search for D8: "):
                call(0)
        assert len(autcent(g)) == 4
        for call in (
            lambda b: homs_to_central_subgroup(g, g.center(), b),
            lambda b: autcent(g, b),
        ):
            with pytest.raises(BudgetExceeded, match=r"^homomorphism search for D8: "):
                call(0)

    def test_lemma0_bounds_its_hom_search(self):
        g = direct_product(dihedral_group(4), dicyclic_group(2))
        with pytest.raises(BudgetExceeded, match=r"^homomorphism search for "):
            verify_lemma0(g, g.center(), budget=1)

    def test_center_fixing_autcent_obeys_budget_after_caching(self):
        g = dihedral_group(4, name="D8")
        assert center_fixing_autcent(g) == autcent(g)
        with pytest.raises(BudgetExceeded, match=r"^homomorphism search for D8: "):
            center_fixing_autcent(g, budget=1)


class TestForeignObjects:
    """A subgroup, automorphism or automorphism set of another group is rejected,
    not read as indices."""

    @pytest.fixture
    def d8_q8(self):
        return catalog_group("D8"), catalog_group("Q8")

    def test_fixing_subgroup_rejects_a_foreign_subgroup(self, d8_q8):
        d8, q8 = d8_q8
        with pytest.raises(HypothesisViolated, match="belongs to a different group"):
            aut_fixing_subgroup(d8, q8.subgroup(q8.closure([1])), autcent(d8))

    def test_fixing_subgroup_rejects_a_foreign_set(self, d8_q8):
        d8, q8 = d8_q8
        with pytest.raises(HypothesisViolated, match="belongs to a different group"):
            aut_fixing_subgroup(d8, d8.center(), autcent(q8))

    def test_fixing_quotient_rejects_a_foreign_set(self, d8_q8):
        d8, q8 = d8_q8
        with pytest.raises(HypothesisViolated, match="belongs to a different group"):
            aut_fixing_quotient(d8, d8.center(), autcent(q8))
        with pytest.raises(NotNormal, match="belongs to a different group"):
            aut_fixing_quotient(d8, q8.center(), autcent(d8))

    def test_central_homs_reject_a_foreign_target(self, d8_q8):
        d8, q8 = d8_q8
        with pytest.raises(NotCentral):
            homs_to_central_subgroup(d8, q8.center())
        aut = next(iter(autcent(d8)))
        with pytest.raises(NotCentral):
            hom_from_automorphism(d8, aut, q8.center())

    def test_a_foreign_automorphism_is_rejected(self, d8_q8):
        # every central automorphism of Q8 once read as one of D8: central,
        # with tables such as (0,0,0,0,2,2,2,2) for its Hom into Z(D8)
        d8, q8 = d8_q8
        d8_autcent = autcent(d8)
        for aut in autcent(q8):
            with pytest.raises(HypothesisViolated, match="belongs to a different group"):
                is_central_automorphism(d8, aut)
            with pytest.raises(HypothesisViolated, match="belongs to a different group"):
                hom_from_automorphism(d8, aut, d8.center())
            assert aut not in d8_autcent
        identity = tuple(range(8))
        assert Automorphism(q8, identity) not in d8_autcent
        assert Automorphism(d8, identity) in d8_autcent and identity in d8_autcent

    def test_a_copy_on_the_same_table_is_rejected(self, d8_q8):
        # a subgroup or set belongs to the Group object it was made from
        d8, _ = d8_q8
        copy = catalog_group("D8")
        assert np.array_equal(copy.mul, d8.mul)
        with pytest.raises(NotCentral):
            homs_to_central_subgroup(d8, copy.center())
        with pytest.raises(NotCentral):
            hom_from_automorphism(d8, next(iter(autcent(d8))), copy.center())
        foreign = next(iter(autcent(copy)))
        with pytest.raises(HypothesisViolated, match="belongs to a different group"):
            is_central_automorphism(d8, foreign)
        with pytest.raises(HypothesisViolated, match="belongs to a different group"):
            hom_from_automorphism(d8, foreign, d8.center())
        assert foreign not in autcent(d8)
        with pytest.raises(HypothesisViolated, match="belongs to a different group"):
            aut_fixing_subgroup(d8, copy.center(), autcent(d8))
        with pytest.raises(HypothesisViolated, match="belongs to a different group"):
            aut_fixing_subgroup(d8, d8.center(), autcent(copy))
        with pytest.raises(HypothesisViolated, match="belongs to a different group"):
            aut_fixing_quotient(d8, d8.center(), autcent(copy))
        with pytest.raises(NotNormal, match="belongs to a different group"):
            aut_fixing_quotient(d8, copy.center(), autcent(d8))
        with pytest.raises(NotNormal, match="belongs to a different group"):
            d8.quotient(copy.center())
        assert d8.center() != copy.center() and autcent(d8) != autcent(copy)


class TestAlphaFromF:
    def test_zero_map_gives_identity(self):
        g = dihedral_group(4)
        zero = homs_to_central_subgroup(g, g.trivial_subgroup())[0]
        aut = alpha_from_f(g, zero)
        assert aut is not None and aut.images == tuple(range(g.n))

    def test_projection_onto_factor_is_rejected(self):
        g = abelian_group([2, 2])
        target = g.subgroup_generated([1])
        f = next(
            f for f in homs_to_central_subgroup(g, target) if f[1] == 1
        )
        assert alpha_from_f(g, f) is None  # f(m) = m = m^-1 on the generator

    def test_d8_four_homs_classified_by_bijectivity(self):
        g = dihedral_group(4)
        homs = homs_to_central_subgroup(g, g.center())
        built = [alpha_from_f(g, f) for f in homs]
        # the hypothesis is checked internally against direct bijectivity,
        # and for D8 every value lands inside the kernel, so all four work
        assert all(a is not None for a in built)
        assert len({a.images for a in built}) == 4

    def test_every_central_subgroup_matches_the_quotient_filter(self, groups):
        # alpha over Hom(G, M) is Aut^M(G), the central automorphisms acting
        # trivially on G/M; this runs alpha's internal criterion check on
        # every subgroup M of the center, not only on Z(G)
        for g in groups.values():
            if g.p_group_prime() is None or g.n > 81:
                continue
            ac = autcent(g)
            for m in g.center().all_subgroups():
                built = (alpha_from_f(g, f) for f in homs_to_central_subgroup(g, m))
                expected = aut_fixing_quotient(g, m, ac)
                assert AutSet(g, (a for a in built if a is not None)) == expected, (
                    g.name, m.members,
                )

    def test_generator_width_filter_matches_the_full_width_one(self):
        # aut_fixing_quotient reads x^-1 a(x) at a generating set only; the
        # scalar loop reads every x and is its oracle
        for seed, (name, make) in enumerate(catalog().items()):
            group = make()
            for g in (group, relabelled_group(group, seed)):
                table = g.mul_rows()
                sets = (autcent(g), center_fixing_autcent(g), inner_automorphisms(g))
                for m in g.center().all_subgroups():
                    for within in sets:
                        kept = [a.images for a in aut_fixing_quotient(g, m, within)]
                        expected = naive_fixing_quotient(
                            table, m.members, [a.images for a in within]
                        )
                        assert kept == expected, (g.name, m.members)

    def test_roundtrip_small_corpus(self, corpus):
        for g in corpus:
            if g.n > 32:
                continue
            z = g.center()
            homs = homs_to_central_subgroup(g, z)
            seen = set()
            for f in homs:
                aut = alpha_from_f(g, f)
                if aut is None:
                    continue
                back = hom_from_automorphism(g, aut, z)
                assert back == tuple(f), g.name
                assert aut.images not in seen
                seen.add(aut.images)
            # every central automorphism arises from some displacement hom
            assert seen == set(a.images for a in autcent(g)), g.name


class TestPurelyNonabelian:
    def test_abelian_groups_are_not(self):
        assert not is_purely_nonabelian(abelian_group([2, 2]))
        assert not is_purely_nonabelian(cyclic_group(2))

    def test_trivial_group_is(self):
        assert is_purely_nonabelian(from_cayley_table([[0]]))

    def test_d8_is(self):
        assert is_purely_nonabelian(dihedral_group(4))

    def test_d8xc2_is_not_and_split_is_valid(self):
        # the central element that rules purity out generates a direct
        # factor: a normal subgroup of the complementary order meets it
        # trivially and commutes with it
        g = direct_product(dihedral_group(4), cyclic_group(2))
        assert not is_purely_nonabelian(g)
        a = _factor_element(g)
        a_sub = g.subgroup(g.closure([a]))
        assert a in g.center() and is_abelian_subgroup(a_sub) and len(a_sub) > 1
        h_sub = next(
            h for h in g.normal_subgroups()
            if len(h) * len(a_sub) == g.n and h.member_set & a_sub.member_set == {g.identity}
        )
        rows = g.mul_rows()
        assert all(
            rows[h][x] == rows[x][h] for h in h_sub.members for x in a_sub.members
        )


class TestLemma0:
    def test_d8_counts(self):
        g = dihedral_group(4)
        rep = verify_lemma0(g, g.center())
        assert rep.hypothesis_holds
        assert rep.hom_count == rep.aut_quotient_count == 4
        assert rep.center_fixing_count == rep.center_hom_count == 4
        assert rep.status == "pass"

    def test_q8_counts(self):
        g = dicyclic_group(2)
        rep = verify_lemma0(g, g.center())
        assert rep.status == "pass" and rep.hom_count == 4

    def test_elementary_abelian_full_target_fails_hypothesis(self):
        g = abelian_group([2, 2])
        rep = verify_lemma0(g, g.subgroup(range(g.n)))
        assert not rep.hypothesis_holds
        assert rep.status == "hypothesis-fails"

    def test_natural_iso_on_all_center_subgroups_small(self, corpus):
        for g in corpus:
            if g.n > 16:
                continue
            for m in g.center().all_subgroups():
                rep = verify_lemma0(g, m)
                assert rep.natural_iso_matches, (g.name, m.members)
                if rep.hypothesis_holds:
                    assert rep.status == "pass", (g.name, m.members)


class TestLemma0a:
    def test_d8(self):
        rep = verify_lemma0a(dihedral_group(4))
        assert rep.autcent_order == rep.hom_count == 4

    def test_q8(self):
        rep = verify_lemma0a(dicyclic_group(2))
        assert rep.matches and rep.autcent_order == 4

    def test_heisenberg_27(self):
        rep = verify_lemma0a(heisenberg_group(3))
        assert rep.autcent_order == rep.hom_count == 9

    def test_rejects_abelian_factor(self):
        g = direct_product(dihedral_group(4), cyclic_group(2))
        with pytest.raises(NotPurelyNonabelian):
            verify_lemma0a(g)


@pytest.fixture(scope="module")
def array_route_groups(groups):
    """Catalog p-groups of order <= 81, the trivial group (a 1 x 1 table) and
    C343, whose indices need uint16."""
    small = [g for g in groups.values() if g.p_group_prime() is not None and g.n <= 81]
    return small + [from_cayley_table([[0]], name="C1"), cyclic_group(343)]


class TestArrayRouteAgainstScalarOracles:
    def test_autcent_is_every_bijective_x_fx(self, array_route_groups):
        for g in array_route_groups:
            table = g.mul_rows()
            homs = homs_to_central_subgroup(g, g.center())
            dtype = np.min_scalar_type(g.n - 1)
            assert homs.dtype == dtype and homs.shape[1] == g.n, g.name
            built = [naive_alpha(table, f) for f in homs.tolist()]
            alphas = [alpha_from_f(g, f) for f in homs]
            assert [None if a is None else a.images for a in alphas] == built, g.name
            ac = autcent(g)
            assert ac.tables.dtype == dtype, g.name
            assert [a.images for a in ac] == sorted(a for a in built if a is not None), g.name

    def test_filters_match_the_scalar_loops(self, array_route_groups):
        # Aut^M and Aut^M_Z for every M <= Z(G), filtered from Autcent
        for g in array_route_groups:
            table = g.mul_rows()
            ac = autcent(g)
            ac_tables = [a.images for a in ac]
            z = g.center()
            for m in z.all_subgroups():
                aut_m = aut_fixing_quotient(g, m, ac)
                expected = naive_fixing_quotient(table, m.members, ac_tables)
                assert [a.images for a in aut_m] == expected, (g.name, m.members)
                aut_m_z = aut_fixing_subgroup(g, z, aut_m)
                assert [a.images for a in aut_m_z] == naive_fixing_subgroup(
                    z.members, expected
                ), (g.name, m.members)

    def test_narrow_dtype_never_leaks(self, groups):
        for g in groups.values():
            if g.p_group_prime() is None or g.n > 81:
                continue
            ac = autcent(g)
            for s in (ac, inner_automorphisms(g), aut_fixing_subgroup(g, g.center(), ac)):
                images = [a.images for a in s]
                assert images == sorted(s.images_set), g.name
                assert all(type(v) is int for t in images for v in t), g.name
                rebuilt = AutSet(g, list(s))
                assert rebuilt == s and hash(rebuilt) == hash(s), g.name
