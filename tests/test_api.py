"""The public API: ``centauts.__all__`` is a fixed set of names, each defined.

The package re-exports names from the modules that define them (the
oracle's from ``centauts.oracle``), so moving a function between modules
must neither drop an export nor leave a name in ``__all__`` undefined.
"""

import centauts

PUBLIC = {
    "__version__", "errors",
    # groups
    "DEFAULT_ELEMENT_CAP", "Group", "Subgroup", "QuotientMap", "from_cayley_table",
    "from_permutation_generators", "direct_product",
    # abelian invariants
    "AbelianType", "ClassTwoInvariants", "HomGrowth", "invariants", "hom_order",
    "class_two_invariants", "lemma4_compare",
    # automorphisms and the oracle
    "DEFAULT_SEARCH_BUDGET", "Automorphism", "AutSet", "minimal_generating_set",
    "all_automorphisms", "inner_automorphisms", "is_central_automorphism", "autcent",
    "autcent_order", "center_fixing_autcent", "aut_fixing_quotient", "aut_fixing_subgroup",
    "enumerate_homs", "homs_to_central_subgroup", "alpha_from_f", "hom_from_automorphism",
    "is_purely_nonabelian", "verify_lemma0", "verify_lemma0a",
    # theory
    "ConditionSide", "OracleSide", "TheoremResult", "theorem_condition", "verify_theorem",
    "verify_proposition1", "verify_corollary1", "verify_lemma3", "verify_lemma4_sweep",
    "verify_attar",
    # corpus and reporting
    "CHECK_NAMES", "GroupReport", "RunConfig", "catalog", "catalog_group", "cyclic_group",
    "abelian_group", "dihedral_group", "dicyclic_group", "metacyclic_group",
    "heisenberg_group", "central_product", "parse_group_file", "parse_group_text",
    "serialize_group", "group_file_text", "analyze_group", "scan_corpus", "emit_report",
}


def test_every_export_is_defined_and_the_set_is_fixed():
    assert len(PUBLIC) == 64
    assert len(centauts.__all__) == len(set(centauts.__all__))
    assert set(centauts.__all__) == PUBLIC
    assert [name for name in centauts.__all__ if not hasattr(centauts, name)] == []
