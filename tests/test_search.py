"""The level-wise array search against the recursive search it replaced.

``dfs_search_maps`` in ``oracles.py`` is that recursive search, unchanged.
It verifies every (element, generator) product at every level, while the
array search verifies only the relations of ``_generator_chain``: the
products that neither define a new element nor lie in the previous,
already verified subgroup.  Every search the library makes for central
Homs, full automorphism groups and generator extensions is recorded and
replayed through both, which must return the same tables in the same
order, the same attempt count and, at a budget one below that count, the
same error.
"""

import re

import numpy as np
import pytest

from centauts import all_automorphisms, enumerate_homs, homs_to_central_subgroup
from centauts import automorphisms, theory
from centauts.corpus import abelian_group, catalog, cyclic_group, dihedral_group
from centauts.errors import BudgetExceeded, InternalDisagreement
from centauts.theory import _extend_generator_map, build_factor_witness

from oracles import dfs_search_maps

# bound before the fixture below wraps the module attribute
search_maps = automorphisms._search_maps


@pytest.fixture
def recorded(monkeypatch):
    """The argument tuples of every ``_search_maps`` call, in call order."""
    calls = []

    def record(module):
        search = module._search_maps

        def wrapper(*args, **kwargs):
            calls.append((args, kwargs))
            return search(*args, **kwargs)

        monkeypatch.setattr(module, "_search_maps", wrapper)

    record(automorphisms)
    record(theory)
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
    for name, make in catalog().items():
        group = make()
        for target in _central_subgroups(group):
            homs_to_central_subgroup(group, target)
    _assert_same(recorded)
    _assert_same_budget_edge([c for c in recorded if c[0][0].n <= 16])


def test_automorphism_searches_match_dfs(recorded):
    for name, make in catalog().items():
        group = make()
        if 1 < group.n <= 32:
            all_automorphisms(group)
    _assert_same(recorded)
    _assert_same_budget_edge([c for c in recorded if c[0][0].n <= 8])


def test_generator_extensions_match_dfs(recorded):
    for name, make in catalog().items():
        group = make()
        if not group.is_abelian() and group.p_group_prime() is not None:
            if automorphisms.abelian_factor_split(group) is not None:
                build_factor_witness(group)
    d8 = dihedral_group(4, name="D8")
    gens = list(automorphisms.minimal_generating_set(d8))
    _extend_generator_map(d8, gens, gens)
    rotation = next(x for x in range(d8.n) if d8.element_order(x) == 4)
    with pytest.raises(InternalDisagreement, match="does not extend to a homomorphism"):
        # some generator has order 2, and its image has order 4
        _extend_generator_map(d8, gens, [rotation] * len(gens))
    # 2 already lies in <1>, so its image is forced by the image of 1
    c4 = cyclic_group(4)
    assert _extend_generator_map(c4, [1, 2], [1, 2]) == (0, 1, 2, 3)
    with pytest.raises(InternalDisagreement, match="does not extend to a homomorphism"):
        _extend_generator_map(c4, [1, 2], [1, 1])
    extensions = [c for c in recorded if c[1]["what"].startswith("generator extension")]
    assert len(extensions) > 4
    _assert_same(extensions)
    _assert_same_budget_edge(extensions)


class TestOrder256:
    """At n = 256 the largest index 255 is an element; nothing marks a missing image."""

    def test_identity_extension_reaches_255(self):
        table = _extend_generator_map(cyclic_group(256), [1], [1])
        assert table == tuple(range(256))
        assert all(type(v) is int for v in table)

    def test_non_generating_set_is_reported(self):
        with pytest.raises(InternalDisagreement, match="generators do not generate C256"):
            _extend_generator_map(cyclic_group(256), [2], [2])

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
