"""The oracle: exhaustive Aut and Hom search and the materialized Autcent.

No check calls this module; the tests and the acceptance gate compare the
checks' count route against it, and ``theory.verify_theorem`` builds
:func:`autcent` only to name a witness after a disagreement.

The search assigns images to a minimal generating set level by level, over
numpy arrays of partial maps: at each level every surviving partial map is
paired with every candidate image at once, extended over the subgroup
generated so far, pruned on injectivity when searching automorphisms, and
verified on every (element, generator) product that can fail (see
:func:`_generator_chain`); a full assignment is therefore exactly a
homomorphism (an automorphism, with the prune).
Everything is deterministic: candidates are tried in index order and results
are sorted by value table.  :func:`enumerate_homs` is the oracle of every Hom
set and count the checks read, and the full automorphism group,
:func:`all_automorphisms`, is the independent oracle of the central ones.
The element orders and Frattini subgroup that pick the generators and
candidate images are the oracle's own, by repeated multiplication over the
table (:func:`_element_orders`, :func:`_frattini_members`): the structural
route reads :meth:`~centauts.groups.Group.powers`, so a fault there cannot
reach both sides.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .automorphisms import (
    DEFAULT_SEARCH_BUDGET,
    AutSet,
    Automorphism,
    _ab_homs,
    _alpha_tables,
    _budget_exceeded,
    _canonical,
    _pull_back,
)
from .errors import HypothesisViolated, NotCentral
from .groups import Group, Subgroup, _readonly


def _element_orders(group: Group) -> np.ndarray:
    """The order of every element, by repeated multiplication over
    ``group.mul``: x, x^2, ... until the identity.  The oracle's own, read
    off no power table of the structural route."""
    x = np.arange(group.n)
    orders = np.zeros(group.n, dtype=np.int64)
    power = x
    for k in range(1, group.n + 1):
        orders[(power == group.identity) & (orders == 0)] = k
        if orders.all():
            break
        power = group.mul[power, x]
    return orders


def _frattini_members(group: Group) -> list[int] | None:
    """Members of the Frattini subgroup of a non-trivial p-group: the closure
    of [G, G] and the p-th powers, each by p - 1 multiplications over
    ``group.mul``.  None for any other group."""
    if group.n == 1 or group.p_group_prime() is None:
        return None
    x = np.arange(group.n)
    power = x
    for _ in range(group.prime() - 1):
        power = group.mul[power, x]
    return group.closure([*power.tolist(), *group.commutator_subgroup().members])


def _search_generating_set(
    group: Group, orders: np.ndarray, frattini: list[int] | None
) -> tuple[int, ...]:
    """Irredundant generating set used by image searches, given the
    :func:`_element_orders` and :func:`_frattini_members`: a non-trivial
    p-group's minimal one (picked greedily over the Frattini subgroup, a
    basis of G/Frattini) sorted by (element order, index), else the greedy
    one in its own order, which sorting could make redundant."""
    if frattini is None:
        return group.generating_set()
    gens = group._greedy_generators(frattini)
    return tuple(sorted(gens, key=lambda w: (orders[w], w)))


def _generator_chain(group: Group, gens: Sequence[int]):
    """Derivation schedule for the chain H_i = <gens[0..i]>.

    Returns one entry per level i: (elements of H_{i-1} in discovery order,
    new elements of H_i as (element, parent, slot) with element = parent *
    gens[slot] and parent discovered earlier, relations (element, slot,
    element * gens[slot])).  These are the products x * gens[i], x in H_{i-1},
    and x * gens[s], x new and s <= i; the rest lie in H_{i-1}, computed earlier.
    """
    rows = group.mul_rows()
    levels = []
    known = [group.identity]
    known_set = set(known)
    for i in range(len(gens)):
        new, relations, pool = [], [], list(known)
        for qi, x in enumerate(pool):  # pool grows while walked: breadth-first
            row = rows[x]
            for s in range(i + 1) if qi >= len(known) else (i,):
                t = row[gens[s]]
                if t in known_set:
                    relations.append((x, s, t))
                else:
                    known_set.add(t)
                    new.append((t, x, s))
                    pool.append(t)
        levels.append((known, new, relations))
        known = pool
    return levels


def _level_schedule(source: Group, gens: Sequence[int]):
    """Index arrays that derive and verify each level of the chain H_i = <gens[0..i]>.

    Per level i: the elements of H_{i-1}; the new elements of H_i in waves,
    as (elements, parents, slots) arrays whose parents are old or in an
    earlier wave; the relations of :func:`_generator_chain` grouped by slot,
    as (slot, elements, products) arrays; and every element of H_i.
    """
    schedule = []
    for old, new, relations in _generator_chain(source, gens):
        depth: dict[int, int] = {}
        waves: list[list[tuple[int, int, int]]] = []
        for t, parent, slot in new:
            d = depth[t] = depth.get(parent, -1) + 1
            if d == len(waves):
                waves.append([])
            waves[d].append((t, parent, slot))
        rel = np.array(relations, dtype=np.intp).reshape(-1, 3)
        old = np.array(old, dtype=np.intp)
        schedule.append((
            old,
            [tuple(np.array(c, dtype=np.intp) for c in zip(*wave)) for wave in waves],
            [(s, rel[rel[:, 1] == s, 0], rel[rel[:, 1] == s, 2]) for s in np.unique(rel[:, 1])],
            np.concatenate((old, np.array([t for t, _, _ in new], dtype=np.intp))),
        ))
    return schedule


def _search_maps(
    source: Group,
    target: Group,
    gens: Sequence[int],
    cands: Sequence[Sequence[int]],
    injective: bool,
    limit: int,
    what: str,
) -> tuple[np.ndarray, int]:
    """All maps on ``gens`` extending to homomorphisms source -> target.

    A breadth-first search over frontier arrays: level i pairs every
    surviving partial map with every candidate image y of ``gens[i]`` (rows
    in partial-map-major, candidate-minor order), fills in the new elements
    of H_i = <gens[0..i]> one wave of parents at a time, and keeps the rows
    that pass, as masks: with ``injective``, y is not an image of H_{i-1}
    and the images of H_i are distinct (adjacent compare of the sorted
    rows); and phi(x * gens[s]) = phi(x) * phi(gens[s]) for every relation
    (x, s) of the level, one gather per slot s.  The products that define new
    elements hold by construction and those inside H_{i-1} held at earlier
    levels, so a full assignment is exactly a homomorphism (an automorphism,
    with injectivity).  ``gens`` must generate the source (outside <gens> a
    table holds the target identity) and, with ``injective``, be irredundant:
    the prune rejects the image that the relation (identity, i) forces on a
    generator inside the span of the earlier ones.

    Returns the value tables as a read-only ``k x source.n`` array in the
    dtype of ``target.mul``, rows distinct and sorted
    lexicographically, and the number of extension attempts: the sum over
    levels of surviving partial maps times candidates.  Each level's term is
    added before the level is expanded, and the search raises the error of
    :func:`_budget_exceeded` (``what`` names the search) as soon as the sum
    passes ``limit``, so an over-budget search fails before the work.
    """
    tmul = target.mul
    naive_space = math.prod(map(len, cands))
    phi = np.full((1, source.n), target.identity, dtype=tmul.dtype)
    imgs = np.zeros((1, 0), dtype=tmul.dtype)
    attempts = 0
    for i, (old, waves, relations, members) in enumerate(_level_schedule(source, gens)):
        cand = np.asarray(cands[i], dtype=tmul.dtype)
        k, m = len(phi), len(cand)
        attempts += k * m
        if attempts > max(limit, 0):
            raise _budget_exceeded(what, limit, naive_space)
        rows = np.repeat(np.arange(k), m)
        y = np.tile(cand, k)
        if injective:
            used = np.zeros((k, target.n), dtype=bool)
            used[np.arange(k)[:, None], phi[:, old]] = True
            fresh = ~used[:, cand].ravel()
            rows, y = rows[fresh], y[fresh]
        phi = phi[rows]
        imgs = np.concatenate((imgs[rows], y[:, None]), axis=1)
        for elems, parents, slots in waves:
            phi[:, elems] = tmul[phi[:, parents], imgs[:, slots]]
        ok = np.ones(len(phi), dtype=bool)
        for s, elems, products in relations:
            ok &= (phi[:, products] == tmul[phi[:, elems], imgs[:, s, None]]).all(axis=1)
        if injective:
            image = np.sort(phi[:, members], axis=1)
            ok &= (image[:, 1:] != image[:, :-1]).all(axis=1)
        phi, imgs = phi[ok], imgs[ok]
    return _canonical(phi), attempts


def all_automorphisms(group: Group, budget: int | None = None) -> AutSet:
    """Every automorphism of the group, by exhaustive generator-image search.

    Candidate images for each generator are limited to elements of the same
    order (and, for p-groups, outside the Frattini subgroup).  The search is
    aborted with :class:`BudgetExceeded` once the number of attempted partial
    extensions passes the budget; results are never silently truncated.  The
    attempt count is cached with the result, so a later call with a smaller
    budget raises exactly as a fresh search would.
    """
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    what = f"automorphism search for {group.name}"

    def compute():
        orders, frattini = _element_orders(group), _frattini_members(group)
        gens = _search_generating_set(group, orders, frattini)
        outside = np.ones(group.n, dtype=bool)
        if frattini is not None:
            outside[frattini] = False
        cands = [np.flatnonzero((orders == orders[w]) & outside).tolist() for w in gens]
        tables, attempts = _search_maps(
            group, group, gens, cands, injective=True, limit=limit, what=what
        )
        return tables, attempts, math.prod(map(len, cands))

    tables, attempts, naive_space = group._cached("all_automorphisms", compute)
    if attempts > max(limit, 0):  # a search that made no attempts never raises
        raise _budget_exceeded(what, limit, naive_space)
    return AutSet._of(group, tables)


def enumerate_homs(source: Group, target: Group, budget: int | None = None) -> list[tuple[int, ...]]:
    """Value tables of every homomorphism from source into target, sorted.

    Found by the generator-image search, the oracle of every Hom set and
    count the checks read.  Each table is a tuple of Python ints.
    """
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    sorders = _element_orders(source)
    torders = _element_orders(target)
    gens = _search_generating_set(source, sorders, _frattini_members(source))
    cands = [np.flatnonzero(sorders[w] % torders == 0).tolist() for w in gens]
    what = f"homomorphism search for {source.name}"
    tables, _ = _search_maps(
        source, target, gens, cands, injective=False, limit=limit, what=what
    )
    return [tuple(t) for t in tables.tolist()]


def homs_to_central_subgroup(
    group: Group, target: Subgroup, budget: int | None = None
) -> np.ndarray:
    """Value tables of every homomorphism from the group into a central subgroup.

    The result is one read-only ``k x n`` array in the dtype of
    ``group.mul``: row i is the value table of the i-th homomorphism,
    rows distinct and sorted lexicographically.  The target must be a
    central subgroup of the group (:class:`NotCentral` otherwise).  The rows
    are those of :func:`_ab_homs` on the abelianization, pulled back through
    the quotient map on each call: built from a checked basis of G^ab
    (:func:`_basis_homs`), their count checked against a type formula
    (:func:`~centauts.abelian._hom_count`).  The rows are not checked again,
    and the pull-back keeps their order (see :func:`_pull_back`).  The
    budget bounds the enumeration and applies on every call, cached or not.
    """
    return _readonly(_pull_back(group, target, _ab_homs(group, target, budget)))


def autcent(group: Group, budget: int | None = None) -> AutSet:
    """The central automorphisms, built from Hom(G/[G,G], Z(G)) and materialized.

    A central automorphism is exactly a bijective map x -> x f(x) with f a
    homomorphism from G into Z(G) (Adney and Yen, Illinois J. Math. 9, 1965),
    so the set is read off the ``k x n`` array of
    :func:`homs_to_central_subgroup` in one batched pass of the map behind
    :func:`alpha_from_f`, keeping the rows bijective at full width, and
    sorted into the :class:`AutSet` table array.  The budget bounds that
    Hom search and applies on every call, cached or not.  The checks read
    :func:`autcent_order` and :func:`center_fixing_autcent` instead (the
    prime-order columns of Z(G) and the Z-fixing rows); this set is their
    oracle, and the tests compare it with the centrality filter and the
    Inn-centralizer test over :func:`all_automorphisms`.
    """
    homs = homs_to_central_subgroup(group, group.center(), budget)

    def compute():
        images, bijective = _alpha_tables(group, homs)
        return _canonical(images[bijective])

    return AutSet._of(group, group._cached("autcent", compute))


def hom_from_automorphism(group: Group, aut: Automorphism, target: Subgroup) -> tuple[int, ...]:
    """Value table of f(x) = x^-1 * aut(x), for aut centralizing G/target.

    With ``target`` central, f is a homomorphism into it; it is not checked
    again.  ``aut`` must be the group's (:class:`HypothesisViolated` otherwise).
    """
    if target.parent is not group or not target.is_central():
        raise NotCentral(f"target subgroup of {group.name} is not central")
    if aut.group is not group:
        raise HypothesisViolated("automorphism belongs to a different group")
    rows = group.mul_rows()
    inv = group.inv
    values = tuple(rows[int(inv[x])][aut.images[x]] for x in range(group.n))
    tset = target.member_set
    if any(v not in tset for v in values):
        raise HypothesisViolated(
            "automorphism does not act trivially on the quotient by the target"
        )
    return values


def aut_fixing_subgroup(group: Group, fixed: Subgroup, within: AutSet) -> AutSet:
    """Automorphisms in ``within`` fixing every element of ``fixed``.

    Both must belong to the group (:class:`HypothesisViolated` otherwise).  A
    row of ``within.tables`` is kept iff it is the identity on ``fixed``; the
    kept rows of the canonical array are the result's array, in order.
    """
    if fixed.parent is not group or within.group is not group:
        raise HypothesisViolated("subgroup or automorphism set belongs to a different group")
    members = np.asarray(fixed.members)
    tables = within.tables
    keep = (tables[:, members] == members).all(axis=1)
    return AutSet._of(group, _readonly(tables[keep]))
