"""The level-wise array search against the recursive search it replaced.

``dfs_search_maps`` in ``oracles.py`` is that recursive search, unchanged.
It verifies every (element, generator) product at every level, while the
array search verifies only the relations of ``_generator_chain``: the
products that neither define a new element nor lie in the previous,
already verified subgroup.  Every search made here for central Homs, full
automorphism groups and generator extensions is recorded and replayed
through both, which must return the same tables in the same order, the
same attempt count and, at a budget one below that count, the same error.
The checks search nothing: central Homs are built from a basis, which is
compared with both searches, and the lemma 3 witness, built from a basis
coordinate, is compared with the generator extension of its values.  No
check calls any function of ``centauts.oracle``, the search's module, at
all, and the oracle reads no ``Group.powers`` table.  No check, parse or
emit calls numpy's ``unique`` either, so no process loads ``numpy.ma``.
"""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import centauts
from centauts import all_automorphisms, direct_product, enumerate_homs, group_file_text
from centauts import automorphisms, oracle, theory
from centauts.corpus import (
    PER_GROUP_CHECKS,
    RunConfig,
    abelian_group,
    analyze_group,
    catalog,
    catalog_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    emit_report,
    parse_group_text,
    scan_corpus,
)
from centauts.errors import BudgetExceeded, InternalDisagreement
from centauts.groups import Group
from centauts.theory import build_factor_witness, verify_lemma3

from oracles import dfs_search_maps, extend_generator_map, relabelled_group

# bound before the fixture below wraps the module attribute
search_maps = oracle._search_maps

# the scan of every check over the whole catalog (orders up to 125, primes 2, 3, 5)
FULL_SCAN = Path(__file__).parent / "reference/catalog_scan_full.json"


@pytest.fixture
def recorded(monkeypatch):
    """The argument tuples of every ``_search_maps`` call, in call order."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return search_maps(*args, **kwargs)

    monkeypatch.setattr(oracle, "_search_maps", wrapper)
    return calls


def _replay(call, limit=None):
    """Both searches on one recorded call; ``limit`` overrides its budget."""
    args, kwargs = call
    kwargs = dict(kwargs, limit=kwargs["limit"] if limit is None else limit)
    tables, attempts = search_maps(*args, **kwargs)
    expected, expected_attempts = dfs_search_maps(*args, **kwargs)
    return tables, attempts, expected, expected_attempts


def _assert_same(calls):
    assert calls
    for call in calls:
        tables, attempts, expected, expected_attempts = _replay(call)
        assert not tables.flags.writeable
        assert [tuple(t) for t in tables.tolist()] == expected, call[0][0].name
        assert attempts == expected_attempts, call[0][0].name


def _assert_same_budget_edge(calls):
    """At ``attempts - 1`` both raise one message; at ``attempts`` neither raises."""
    checked = 0
    for call in calls:
        attempts = _replay(call)[1]
        if attempts == 0:
            continue
        messages = []
        for search in (search_maps, dfs_search_maps):
            with pytest.raises(BudgetExceeded) as raised:
                search(*call[0], **dict(call[1], limit=attempts - 1))
            messages.append(str(raised.value))
        assert messages[0] == messages[1], call[0][0].name
        tables, _, expected, _ = _replay(call, limit=attempts)
        assert [tuple(t) for t in tables.tolist()] == expected
        checked += 1
    assert checked


def _central_subgroups(group):
    center = group.center()
    return [
        group.subgroup(center.members[i] for i in sub.members)
        for sub in center.as_group().all_subgroups()
    ]


def test_central_hom_searches_match_dfs(recorded):
    # the oracle's search of Hom(G^ab, M) for every catalog G and M <= Z(G)
    for name, make in catalog().items():
        group = make()
        ab = group.abelianization().target
        for target in _central_subgroups(group):
            enumerate_homs(ab, target.as_group())
    _assert_same(recorded)
    _assert_same_budget_edge([c for c in recorded if c[0][0].n <= 16])


def test_automorphism_searches_match_dfs(recorded):
    for name, make in catalog().items():
        group = make()
        if 1 < group.n <= 32:
            all_automorphisms(group)
    _assert_same(recorded)
    _assert_same_budget_edge([c for c in recorded if c[0][0].n <= 8])


def _mixed_groups():
    """Groups that are not p-groups, each with a non-abelian G/Z: Dic3 x Q8,
    Dic3 x C3 x Q8, whose center C2 x C3 x C2 has mixed order, and S3 x C6."""
    dic3, q8 = dicyclic_group(3), catalog_group("Q8")
    return [
        direct_product(dic3, q8),
        direct_product(direct_product(dic3, cyclic_group(3)), q8),
        direct_product(catalog_group("S3"), catalog_group("C6")),
    ]


def test_basis_homs_match_the_searches(recorded):
    # every catalog group, three groups that are not p-groups and one
    # relabelling of each, every M <= Z(G): the basis build equals the array
    # search, which the recording replays through the recursive search
    groups = [make() for make in catalog().values()] + _mixed_groups()
    for seed, group in enumerate(groups):
        for g in (group, relabelled_group(group, seed)):
            ab = g.abelianization().target
            for target in _central_subgroups(g):
                built = automorphisms._ab_homs(g, target, None)
                assert not built.flags.writeable
                assert built.dtype == np.min_scalar_type(len(target) - 1), g.name
                searched = enumerate_homs(ab, target.as_group())
                assert [tuple(t) for t in built.tolist()] == searched, g.name
    _assert_same(recorded)


def _oracle_bindings():
    """(module, name) for every name a centauts module binds an oracle function to."""
    modules = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == "centauts" or key.startswith("centauts."))
    ]
    return [
        (module, name)
        for module in modules
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == "centauts.oracle"
    ]


def _refusing(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"a check called the oracle's {name}")

    return refuse


def test_no_check_runs_the_search(monkeypatch):
    # the search, full Aut, the Hom enumeration and the materialized Autcent
    # are only the oracle: every function of centauts.oracle raises, under
    # every name a centauts module binds it to, through a whole-catalog scan
    # with every check and every check on each catalog group, on the three
    # groups above and on a relabelling of each
    bindings = _oracle_bindings()
    assert [name for module, name in bindings if module is automorphisms] == []
    assert all(value is not oracle for value in vars(automorphisms).values())
    assert {name for module, name in bindings if module is oracle} >= {
        "_search_maps", "all_automorphisms", "enumerate_homs", "autcent",
        "homs_to_central_subgroup", "hom_from_automorphism", "aut_fixing_subgroup",
    }
    for module, name in bindings:
        monkeypatch.setattr(module, name, _refusing(name))
    reports = scan_corpus(RunConfig(max_order=125, primes=(2, 3, 5)))
    assert emit_report(reports, "json") == FULL_SCAN.read_text(encoding="utf-8")
    statuses = {r.group_id: r.lemma_checks for r in reports}
    groups = [make() for make in catalog().values()] + _mixed_groups()
    for seed, group in enumerate(groups):
        for g in (group, relabelled_group(group, seed)):
            report = analyze_group(g, PER_GROUP_CHECKS)
            assert report.verdict == "agree", (g.name, report.error)
            assert report.lemma_checks == statuses.get(group.name, report.lemma_checks)


def test_no_check_calls_numpy_unique(monkeypatch):
    # element sets are deduplicated by a mask (groups._distinct): with
    # np.unique refusing, the whole-catalog scan still equals its reference,
    # and every check, parse and emit runs on each catalog group and one
    # relabelling of each
    def refuse(*args, **kwargs):
        raise AssertionError("a check called np.unique")

    monkeypatch.setattr(np, "unique", refuse)
    reports = scan_corpus(RunConfig(max_order=125, primes=(2, 3, 5)))
    assert emit_report(reports, "json") == FULL_SCAN.read_text(encoding="utf-8")
    assert emit_report(reports, "csv")
    analyzed = []
    for seed, make in enumerate(catalog().values()):
        group = make()
        for g in (group, relabelled_group(group, seed)):
            parsed = parse_group_text(group_file_text(g))
            assert np.array_equal(parsed.mul, g.mul), g.name
            report = analyze_group(parsed, PER_GROUP_CHECKS)
            assert report.verdict == "agree", (g.name, report.error)
            analyzed.append(report)
    assert emit_report(analyzed, "json") and emit_report(analyzed, "csv")


_FRESH_PROCESS = """
import contextlib, io, sys
from centauts import group_file_text
from centauts.cli import main
from centauts.corpus import PER_GROUP_CHECKS, analyze_group, catalog_group
from centauts.corpus import emit_report, parse_group_text
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["scan", "--max-order", "81", "--prime", "2", "--prime", "3"]) == 0
group = parse_group_text(group_file_text(catalog_group("D8xC2xC2")))
reports = [analyze_group(group, PER_GROUP_CHECKS)]
assert emit_report(reports, "json") and emit_report(reports, "csv")
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_a_fresh_process_never_loads_numpy_ma():
    # numpy's unique imports numpy.ma on its first call; no scan, parse,
    # analysis or emit loads it
    src = str(Path(centauts.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_the_oracle_reads_no_power_table(monkeypatch):
    # the oracle's element orders and Frattini subgroup come from repeated
    # multiplication, not from Group.powers, which the structural route's
    # basis, Hom rows, purity and census read
    known_aut_orders = {"D8": 8, "Q8": 24, "Heis3": 432}
    expected = {}
    for name in known_aut_orders:
        g = catalog_group(name)
        z = g.center()
        expected[name] = (
            all_automorphisms(g).tables.tolist(),
            automorphisms._ab_homs(g, z, None).tolist(),
            enumerate_homs(g, g),
        )

    def refuse(self):
        raise AssertionError("the oracle read Group.powers")

    monkeypatch.setattr(Group, "powers", refuse)
    for name, aut_order in known_aut_orders.items():
        g = catalog_group(name)
        auts, central_homs, endos = expected[name]
        found = all_automorphisms(g)
        assert len(found) == aut_order and found.tables.tolist() == auts, name
        ab, z = g.abelianization().target, g.center()
        assert [list(t) for t in enumerate_homs(ab, z.as_group())] == central_homs, name
        assert enumerate_homs(g, g) == endos, name


def test_a_dependent_basis_is_caught(monkeypatch):
    # a basis step that ignores the span picks the first basis element again
    orders_modulo = automorphisms._orders_modulo

    def ignoring_the_span(powers, in_span):
        identity = powers[-1, 0]  # x^exponent
        return orders_modulo(powers, np.arange(len(in_span)) == identity)

    monkeypatch.setattr(automorphisms, "_orders_modulo", ignoring_the_span)
    g = catalog_group("D8xC2")
    with pytest.raises(InternalDisagreement, match="basis construction for .* meets the span"):
        automorphisms._ab_homs(g, g.center(), None)


def test_generator_extensions_match_dfs(recorded):
    witnessed = 0
    for name, make in catalog().items():
        group = make()
        if not group.is_abelian() and group.p_group_prime() is not None:
            if not automorphisms.is_purely_nonabelian(group):
                # the witness is the extension of its values at the generators
                z, f = build_factor_witness(group)
                gens = list(automorphisms.minimal_generating_set(group))
                assert extend_generator_map(group, gens, [f[w] for w in gens]) == f, name
                witnessed += 1
    assert witnessed == 13
    d8 = dihedral_group(4, name="D8")
    gens = list(automorphisms.minimal_generating_set(d8))
    extend_generator_map(d8, gens, gens)
    rotation = d8.element_orders().index(4)
    with pytest.raises(InternalDisagreement, match="does not extend to a homomorphism"):
        # some generator has order 2, and its image has order 4
        extend_generator_map(d8, gens, [rotation] * len(gens))
    # 2 already lies in <1>, so its image is forced by the image of 1
    c4 = cyclic_group(4)
    assert extend_generator_map(c4, [1, 2], [1, 2]) == (0, 1, 2, 3)
    with pytest.raises(InternalDisagreement, match="does not extend to a homomorphism"):
        extend_generator_map(c4, [1, 2], [1, 1])
    extensions = [c for c in recorded if c[1]["what"].startswith("generator extension")]
    _assert_same(extensions)
    _assert_same_budget_edge(extensions)


def test_lemma3_reports_a_bad_witness(monkeypatch):
    # the witness is validated, not trusted.  Multiplying f by z at x and at
    # xz, x outside the center, swaps the images of x -> x f(x) there: still
    # bijective, central and moving a central element, but f is no longer a
    # homomorphism.  The zero homomorphism moves nothing.
    g = catalog_group("D8xC4")
    z, f = build_factor_witness(g)
    assert verify_lemma3(g).agree
    x = next(x for x in range(g.n) if x not in g.center())
    swapped = list(f)
    for y in (x, int(g.mul[x, z])):
        swapped[y] = int(g.mul[f[y], z])
    for bad in (tuple(swapped), (g.identity,) * g.n):
        monkeypatch.setattr(theory, "build_factor_witness", lambda group, bad=bad: (z, bad))
        rep = verify_lemma3(g)
        assert not rep.witness_valid and not rep.agree


class TestOrder256:
    """At n = 256 the largest index 255 is an element; nothing marks a missing image."""

    def test_identity_extension_reaches_255(self):
        table = extend_generator_map(cyclic_group(256), [1], [1])
        assert table == tuple(range(256))
        assert all(type(v) is int for v in table)

    def test_non_generating_set_is_reported(self):
        with pytest.raises(InternalDisagreement, match="generators do not generate C256"):
            extend_generator_map(cyclic_group(256), [2], [2])

    def test_automorphisms_of_c256(self):
        auts = all_automorphisms(cyclic_group(256))
        assert len(auts) == 128 and auts.tables.dtype == np.uint8
        assert auts.tables[:, 1].tolist() == list(range(1, 256, 2))


def test_over_budget_search_reports_before_the_work():
    c2_5 = abelian_group([2] * 5, name="C2^5")
    message = (
        "homomorphism search for C2^5: 1000001 extension attempts exceed "
        "the budget 1000000 (naive candidate space 33554432)"
    )
    with pytest.raises(BudgetExceeded, match=f"^{re.escape(message)}$"):
        enumerate_homs(c2_5, c2_5, budget=10**6)


def test_enumerate_homs_returns_tuples_of_ints():
    tables = enumerate_homs(cyclic_group(4), cyclic_group(2))
    assert tables == [(0, 0, 0, 0), (0, 1, 0, 1)]
    assert all(type(v) is int for t in tables for v in t)
