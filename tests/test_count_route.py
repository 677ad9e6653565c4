"""The count route of Autcent against the materialized set route.

The checks read |Autcent(G)|, the accepted mask and Aut^Z_Z(G) from one
pass over Hom(G/[G,G], Z(G)) (``autcent_order``, ``center_fixing_autcent``,
the lemma 0 count) and the abelian-factor split at the abelianization's
width; :func:`autcent` materializes every central automorphism and is their
oracle here, on every catalog group and on three seeded relabellings of each.
The pass reads Hom(G^ab, Z) at the prime-order columns of Z alone; its mask
and Aut^Z_Z images are compared here with full-width bijectivity of
x -> x f(x), on every catalog group and two relabellings of each.
"""

import random
import tracemalloc

import numpy as np
import pytest

import centauts.automorphisms as automorphisms
import centauts.oracle as oracle
import centauts.theory as theory
from centauts import (
    AutSet,
    Automorphism,
    abelian_factor_split,
    abelian_group,
    all_automorphisms,
    aut_fixing_quotient,
    aut_fixing_subgroup,
    autcent,
    autcent_order,
    center_fixing_autcent,
    from_cayley_table,
    homs_to_central_subgroup,
    verify_corollary1,
    verify_lemma0,
    verify_theorem,
)
from centauts.corpus import PER_GROUP_CHECKS, analyze_group, catalog, catalog_group
from centauts.errors import BudgetExceeded, InternalDisagreement
from oracles import (
    central_pass_matches_full_width,
    g_row_abelian_factor_split,
    relabel,
    relabelled_group,
)

SEEDS = (1, 2, 3)


def _relabelled(group, seed):
    perm = list(range(group.n))
    random.Random(seed).shuffle(perm)
    return from_cayley_table(relabel(group.mul.tolist(), perm), name=f"{group.name}~{seed}")


@pytest.fixture(scope="module")
def subjects(groups):
    """Every catalog group, then each one relabelled under every seed."""
    return [*groups.values(), *(_relabelled(g, seed) for seed in SEEDS for g in groups.values())]


def _central_subgroups(group):
    center = group.center()
    return [
        group.subgroup(center.members[i] for i in sub.members)
        for sub in center.as_group().all_subgroups()
    ]


def test_autcent_order_counts_the_set(subjects):
    for g in subjects:
        assert autcent_order(g) == len(autcent(g)), g.name


def test_center_fixing_is_the_center_mask_over_autcent(subjects):
    for g in subjects:
        assert center_fixing_autcent(g) == aut_fixing_subgroup(g, g.center(), autcent(g)), g.name


def test_lemma0_count_is_the_quotient_filter_over_autcent(subjects):
    for g in subjects:
        for m_sub in _central_subgroups(g):
            expected = len(aut_fixing_quotient(g, m_sub, autcent(g)))
            assert verify_lemma0(g, m_sub).aut_quotient_count == expected, (g.name, m_sub.members)


def test_abelianization_width_split_matches_the_value_table_split(subjects):
    found = 0
    for g in subjects:
        split = abelian_factor_split(g)
        expected = g_row_abelian_factor_split(g, homs_to_central_subgroup(g, g.center()))
        assert (split is None) == (expected is None), g.name
        if split is not None:
            found += 1
            assert [s.members for s in split] == [s.members for s in expected], g.name
    assert found > len(subjects) // 2  # both outcomes occur


def test_pull_back_keeps_rows_sorted_and_distinct(subjects):
    for g in subjects:
        for m_sub in _central_subgroups(g):
            rows = homs_to_central_subgroup(g, m_sub)
            assert not rows.flags.writeable, g.name
            assert np.array_equal(rows, automorphisms._canonical(rows)), (g.name, m_sub.members)


@pytest.mark.parametrize(
    "dtype, values", [(np.uint8, [0, 1, 128, 255]), (np.uint16, [0, 1, 255, 256, 510])]
)
def test_canonical_is_unique_rows(dtype, values):
    rows = np.random.default_rng(5).choice(np.array(values, dtype=dtype), size=(200, 4))
    rows = np.concatenate([rows, rows[::3]])
    expected = np.unique(rows, axis=0)
    readonly = rows.copy()
    readonly.setflags(write=False)
    for given in (rows.copy(), np.asfortranarray(rows), readonly):
        got = automorphisms._canonical(given)
        assert got.dtype == dtype and not got.flags.writeable
        assert np.array_equal(got, expected)
    assert np.array_equal(readonly, rows)


def test_hom_build_holds_one_table():
    # Hom(C4^3, C4^3): 2^18 rows x 64 uint8 columns, sorted in place
    g = abelian_group([4, 4, 4])
    center = g.center()
    g.abelianization(), center.as_group()
    tracemalloc.start()
    try:
        tables = automorphisms._ab_homs(g, center, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * tables.nbytes, peak / tables.nbytes


def test_checks_never_materialize_autcent(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a check materialized Autcent or Hom(G, Z) on G")

    for module in (oracle, theory):
        monkeypatch.setattr(module, "autcent", refuse)
    monkeypatch.setattr(oracle, "homs_to_central_subgroup", refuse)
    for name, make in catalog().items():
        report = analyze_group(make(), PER_GROUP_CHECKS)
        assert report.verdict == "agree", (name, report.error)


def _outcome(group, budget, count):
    try:
        return count(group, budget)
    except BudgetExceeded as exc:
        return str(exc)


@pytest.mark.parametrize(
    "count",
    [autcent_order, lambda g, b: len(center_fixing_autcent(g, b))],
    ids=["autcent_order", "center_fixing_autcent"],
)
@pytest.mark.parametrize("name", ["D8", "Q8", "D8xC2"])
def test_count_route_obeys_the_budget_on_every_call(name, count):
    cached = catalog_group(name)
    count(cached, None)
    budgets = range(-1, 100)
    fresh = [_outcome(catalog_group(name), b, count) for b in budgets]
    assert [_outcome(cached, b, count) for b in budgets] == fresh
    assert isinstance(fresh[0], str) and isinstance(fresh[-1], int)


def test_z_width_pass_is_full_width_bijectivity(groups):
    # every row once, in order: the mask and the Z-fixing images read at the
    # prime-order columns of Z are those of x -> x f(x) on all of G
    subjects = [*groups.values(), *(relabelled_group(g, s) for s in (1, 2) for g in groups.values())]
    assert [g.name for g in subjects if not central_pass_matches_full_width(g)] == []


def test_a_wrong_criterion_is_caught_by_the_full_width_check(monkeypatch):
    # a criterion read with the wrong inverses (f(z) = z instead of z^-1,
    # which rejects bijective rows at an odd prime) keeps the count, as
    # f -> f^-1 swaps the two criteria, but not the mask, which full-width
    # bijectivity, reading no inverse, tells apart
    g = catalog_group("Heis3xC3")
    expected = len(autcent(catalog_group("Heis3xC3")))
    # the mutant inverses come in once what the commutators read them for
    # is cached: the abelianization, the center's group and its Hom rows
    g.abelianization()
    g.center().as_group()
    automorphisms._ab_homs(g, g.center(), None)
    monkeypatch.setattr(g, "inv", np.arange(g.n, dtype=g.mul.dtype))
    assert autcent_order(g) == expected
    assert not central_pass_matches_full_width(g)


def test_set_equality_needs_the_inclusion_not_just_the_count(monkeypatch):
    # |Autcent(D8xC2)| = 32 rows of Aut(D8xC2) that are not all central have
    # the right count; cor1 and theorem must still read them as a different set
    g = catalog_group("D8xC2")
    auts, central = all_automorphisms(g), autcent(g)
    outside = next(row for row in auts.tables.tolist() if row not in central)
    rows = [outside, *central.tables.tolist()[1:]]
    impostor = AutSet(g, [Automorphism(g, tuple(row)) for row in rows])
    assert len(impostor) == autcent_order(g) == 32
    for claimed, equal in ((impostor, False), (central, True)):
        monkeypatch.setattr(theory, "inner_automorphisms", lambda group, s=claimed: s)
        assert verify_corollary1(g).autcent_equals_inn is equal
        assert verify_theorem(g).oracle.autcent_equals_inn is equal
