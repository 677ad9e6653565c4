"""Acceptance suite: the gate criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The corpus is the built-in catalog restricted to orders <= 64 at
p = 2 and <= 81 at p = 3.
"""

import functools
import time

from centauts import (
    AutSet,
    RunConfig,
    all_automorphisms,
    alpha_from_f,
    autcent,
    emit_report,
    enumerate_homs,
    hom_from_automorphism,
    hom_order,
    homs_to_central_subgroup,
    inner_automorphisms,
    is_central_automorphism,
    is_purely_nonabelian,
    scan_corpus,
    verify_corollary1,
    verify_lemma0a,
    verify_lemma3,
    verify_lemma4_sweep,
    verify_proposition1,
    verify_theorem,
)
from centauts.corpus import abelian_group

from oracles import (
    brute_force_hom_count,
    central_pass_matches_full_width,
    dfs_search_maps,
    g_row_abelian_factor_split,
    is_abelian_subgroup,
    naive_generating_set,
    order_census_hom_count,
    types_up_to,
)


@functools.cache
def _autcent_by_filter(g) -> AutSet:
    """Oracle route one: the centrality filter over the full automorphism group."""
    return AutSet(g, (a for a in all_automorphisms(g) if is_central_automorphism(g, a)))


def _autcent_by_inn_centralizer(g) -> AutSet:
    """Oracle route two: the automorphisms commuting with every inner one.

    Conjugations by a generating set suffice, since they generate Inn(G).
    """
    inner_tables = [
        tuple(int(v) for v in g.mul[g.mul[g.inv[x]], x]) for x in g.generating_set()
    ]
    return AutSet(
        g,
        (
            a
            for a in all_automorphisms(g)
            if all(all(a.images[t[x]] == t[a.images[x]] for x in range(g.n)) for t in inner_tables)
        ),
    )


def _autcent_by_coset_search(g) -> list[tuple[int, ...]]:
    """Oracle route three: the injective maps G -> G sending each generator w
    into its coset wZ(G), by the recursive search.

    Such a map acts trivially on G/Z(G) on a generating set, hence
    everywhere, so these are exactly the central automorphisms.  The route
    shares no code with the Hom route, and with the library's search only
    the derivation schedule of the generator chain.
    """
    table = g.mul_rows()
    center = g.center().members
    gens = naive_generating_set(table)
    cands = [[table[w][z] for z in center] for w in gens]
    tables, _ = dfs_search_maps(g, g, gens, cands, True, 10**7, "coset search")
    return tables


def _abelian_factor_split_by_normal_pairs(g):
    """Oracle for the split: the first pair (H, A) of normal subgroups, A
    abelian and non-trivial, with H and A commuting, H meeting A trivially
    and |H| |A| = |G|, in (size, members) order of A and then of H."""
    rows = g.mul_rows()
    normals = g.normal_subgroups()
    for a_sub in normals:
        if len(a_sub) == 1 or not is_abelian_subgroup(a_sub):
            continue
        centralizer = {
            x for x in range(g.n) if all(rows[x][m] == rows[m][x] for m in a_sub.members)
        }
        for h_sub in normals:
            if (
                len(h_sub) * len(a_sub) == g.n
                and h_sub.member_set & a_sub.member_set == {g.identity}
                and h_sub.member_set <= centralizer
            ):
                return h_sub, a_sub
    return None


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_theorem_equivalence(class2_corpus):
    started = time.time()
    failures = [g.name for g in class2_corpus if not verify_theorem(g).agree]
    elapsed = time.time() - started
    ok = len(class2_corpus) >= 25 and not failures and elapsed < 300
    _report(
        "criterion 1 (theorem equivalence)",
        ok,
        f"{len(class2_corpus)} class-2 groups, {len(failures)} counterexamples, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_inner_coincidence(nonabelian_corpus):
    checked = 0
    failures = []
    for g in nonabelian_corpus:
        if g.n > 32:
            continue
        for row in verify_proposition1(g):
            checked += 1
            if not row.agree:
                failures.append((g.name, row.target_members))
    _report(
        "criterion 2 (inner coincidence over central subgroups)",
        checked > 0 and not failures,
        f"{checked} (group, M) pairs checked, {len(failures)} disagreements",
    )


def test_criterion_3_autcent_equals_inn(nonabelian_corpus, groups):
    failures = [g.name for g in nonabelian_corpus if not verify_corollary1(g).agree]
    spot = {
        name: verify_corollary1(groups[name]) for name in ("D8", "Q8", "Heis3")
    }
    both_true = all(r.autcent_equals_inn and r.condition for r in spot.values())
    d8xq8 = verify_corollary1(groups["D8xQ8"])
    both_false = not d8xq8.autcent_equals_inn and not d8xq8.condition
    _report(
        "criterion 3 (Autcent = Inn characterization)",
        not failures and both_true and both_false,
        f"{len(nonabelian_corpus)} groups, {len(failures)} disagreements; "
        f"positive spots D8/Q8/Heis3, negative spot D8xQ8",
    )


def test_criterion_4_hom_count_oracle(corpus, groups):
    checked = 0
    failures = []
    for g in corpus:
        if not is_purely_nonabelian(g):
            continue
        rep = verify_lemma0a(g)
        checked += 1
        if not rep.matches or len(autcent(g)) != len(_autcent_by_filter(g)):
            failures.append(g.name)
    frozen = len(autcent(groups["D8xQ8"]))
    _report(
        "criterion 4 (central automorphism count = Hom order)",
        checked > 0 and not failures and frozen == 256,
        f"{checked} purely non-abelian groups, {len(failures)} mismatches "
        f"(Hom order and full-Aut filter count); "
        f"|Autcent(D8xQ8)| = {frozen} (expected 256)",
    )


def test_criterion_5_hom_growth_sweep():
    sweeps = [verify_lemma4_sweep(2, 6), verify_lemma4_sweep(3, 4)]
    sweep_ok = all(s.agree for s in sweeps)
    triples = sum(s.triples_checked for s in sweeps)

    mismatches = []
    pairs = 0
    for p in (2, 3, 5):
        realized = [
            (t, abelian_group([p**e for e in t.exps]) if t.exps else abelian_group([1]))
            for t in types_up_to(p, 5)
            if t.order <= 32
        ]
        for ta, ga in realized:
            for tb, gb in realized:
                pairs += 1
                expected = hom_order(ta, tb)
                census = order_census_hom_count(ta.exps, p, gb.mul.tolist())
                if expected != census:
                    mismatches.append((str(ta), str(tb), "census"))
                # listing every homomorphism explicitly is only sensible while
                # the count stays desk-scale
                if expected <= 5000 and len(enumerate_homs(ga, gb)) != expected:
                    mismatches.append((str(ta), str(tb), "enumeration"))
                if ga.n <= 8 and gb.n <= 8:
                    if brute_force_hom_count(ga.mul.tolist(), gb.mul.tolist()) != expected:
                        mismatches.append((str(ta), str(tb), "tuple-brute-force"))
    _report(
        "criterion 5 (Hom growth threshold + counting oracle)",
        sweep_ok and not mismatches,
        f"{triples} threshold triples, {pairs} counted pairs, "
        f"{len(mismatches)} mismatches",
    )


def test_criterion_6_abelian_factor_necessity(corpus, nonabelian_corpus):
    # purity, and the split read off the idempotent Hom rows on G, against
    # the walk over pairs of normal subgroups
    split_mismatches = []
    for g in corpus:
        walk = _abelian_factor_split_by_normal_pairs(g)
        rows = g_row_abelian_factor_split(g, homs_to_central_subgroup(g, g.center()))
        if is_purely_nonabelian(g) != (walk is None) or rows != walk:
            split_mismatches.append(g.name)
    equal_but_splitting = []
    witness_failures = []
    splits = 0
    for g in nonabelian_corpus:
        rep = verify_lemma3(g)
        if rep.sets_equal and not rep.purely_nonabelian:
            equal_but_splitting.append(g.name)
        if not rep.purely_nonabelian:
            splits += 1
            if not (
                rep.witness_valid
                and rep.witness_images is not None
                and rep.witness_moved_central is not None
                and not rep.sets_equal
            ):
                witness_failures.append(g.name)
    _report(
        "criterion 6 (purely non-abelian necessity, both directions)",
        splits > 0
        and not equal_but_splitting
        and not witness_failures
        and not split_mismatches,
        f"{len(nonabelian_corpus)} groups, {splits} with an abelian factor, "
        f"{len(equal_but_splitting)} necessity violations, "
        f"{len(witness_failures)} witness failures; "
        f"{len(split_mismatches)} of {len(corpus)} purity tests or row splits differ "
        f"from the normal-pair walk",
    )


def test_criterion_7_engine_self_consistency(corpus):
    oracle_failures = []
    pass_failures = []
    index_failures = []
    roundtrip_failures = []
    for g in corpus:
        # the Hom route against two routes over the full automorphism group
        if not autcent(g) == _autcent_by_filter(g) == _autcent_by_inn_centralizer(g):
            oracle_failures.append(g.name)
        # the pass at the prime-order columns of Z against full-width bijectivity
        if not central_pass_matches_full_width(g):
            pass_failures.append(g.name)
        if len(inner_automorphisms(g)) != g.n // len(g.center()):
            index_failures.append(g.name)
        if g.n <= 32:
            z = g.center()
            recovered = set()
            for f in homs_to_central_subgroup(g, z):
                aut = alpha_from_f(g, f)
                if aut is None:
                    continue
                if hom_from_automorphism(g, aut, z) != tuple(f):
                    roundtrip_failures.append(g.name)
                recovered.add(aut.images)
            if recovered != set(a.images for a in autcent(g)):
                roundtrip_failures.append(g.name)

    cfg = RunConfig(max_order=16, primes=(2, 3), checks=("theorem", "cor1", "lemma0a"))
    first = emit_report(scan_corpus(cfg), "json")
    second = emit_report(scan_corpus(cfg), "json")
    deterministic = first == second

    _report(
        "criterion 7 (engine self-consistency and determinism)",
        not oracle_failures and not pass_failures and not index_failures
        and not roundtrip_failures and deterministic,
        f"{len(corpus)} groups; full-Aut oracle disagreements {len(oracle_failures)}, "
        f"Z-width pass against full-width bijectivity {len(pass_failures)}, "
        f"inner-index failures {len(index_failures)}, "
        f"round-trip failures {len(roundtrip_failures)}, "
        f"repeated scans byte-identical: {deterministic}",
    )


def test_criterion_8_autcent_by_coset_search(groups):
    p_groups = [g for g in groups.values() if g.p_group_prime() and g.n <= 81]
    failures = [
        g.name
        for g in p_groups
        if [tuple(t) for t in autcent(g).tables.tolist()] != _autcent_by_coset_search(g)
    ]
    _report(
        "criterion 8 (Autcent against the coset-restricted search)",
        len(p_groups) >= 45 and not failures,
        f"{len(p_groups)} p-groups of order <= 81, {len(failures)} disagreements",
    )
