"""Exhaustive Aut/Hom search, central automorphisms, and the f <-> alpha duality.

The search assigns images to a minimal generating set level by level.  At each
level the partial map is extended over the subgroup generated so far by
breadth-first derivations, pruned on injectivity when searching automorphisms,
and verified against every (element, generator) product; a full assignment is
therefore exactly a homomorphism (an automorphism, with the prune).
Everything is deterministic: candidates are tried in index order and results
are sorted by value table.

The central automorphisms are built from Hom(G/[G,G], Z(G)) alone (see
:func:`autcent`); the full automorphism group, :func:`all_automorphisms`, is
the independent oracle the tests compare them against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .abelian import hom_order, invariants
from .errors import (
    BudgetExceeded,
    HypothesisViolated,
    InternalDisagreement,
    NotAGroup,
    NotCentral,
    NotNormal,
    NotPGroup,
    NotPurelyNonabelian,
)
from .groups import Group, Subgroup

DEFAULT_SEARCH_BUDGET = 10_000_000


@dataclass(frozen=True)
class Automorphism:
    """A permutation of a group's element indices respecting multiplication."""

    group: Group
    images: tuple[int, ...]

    @classmethod
    def from_images(cls, group: Group, images: Sequence[int]) -> "Automorphism":
        """Build and fully validate an automorphism from an image table."""
        images = tuple(int(i) for i in images)
        if len(images) != group.n or sorted(images) != list(range(group.n)):
            raise NotAGroup("image table is not a permutation of the elements")
        if images[group.identity] != group.identity:
            raise NotAGroup("image table moves the identity")
        rows = group.mul_rows()
        for x in range(group.n):
            fx = images[x]
            row = rows[x]
            for w in group.generating_set():
                if images[row[w]] != rows[fx][images[w]]:
                    raise NotAGroup(f"map is not a homomorphism at ({x}, {w})")
        return cls(group, images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_identity(self) -> bool:
        return all(i == x for x, i in enumerate(self.images))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self * other)(x) = self(other(x))."""
        im = self.images
        return Automorphism(self.group, tuple(im[i] for i in other.images))

    def inverse(self) -> "Automorphism":
        out = [0] * len(self.images)
        for x, i in enumerate(self.images):
            out[i] = x
        return Automorphism(self.group, tuple(out))

    def __repr__(self) -> str:
        return f"<Automorphism of {self.group.name} {self.images}>"


class AutSet:
    """A canonically sorted, deduplicated collection of automorphisms."""

    __slots__ = ("group", "elements", "images_set")

    def __init__(self, group: Group, elements: Iterable[Automorphism]) -> None:
        tables = sorted({a.images for a in elements})
        self.group = group
        self.elements = tuple(Automorphism(group, t) for t in tables)
        self.images_set = frozenset(tables)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, item) -> bool:
        images = item.images if isinstance(item, Automorphism) else tuple(item)
        return images in self.images_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, AutSet):
            return NotImplemented
        return self.group is other.group and self.images_set == other.images_set

    def __hash__(self) -> int:
        return hash((id(self.group), self.images_set))

    def __repr__(self) -> str:
        return f"<AutSet of {self.group.name}, {len(self.elements)} automorphisms>"

    def is_subset_of(self, other: "AutSet") -> bool:
        return self.images_set <= other.images_set


def minimal_generating_set(group: Group) -> tuple[int, ...]:
    """A minimal generating set of a p-group, picked greedily in index order.

    Elements are added whenever they fall outside the subgroup generated by
    the picks so far together with the Frattini subgroup; the result has size
    equal to the rank of the Frattini quotient.
    """

    def compute():
        if group.n == 1:
            return ()
        if group.p_group_prime() is None:
            raise NotPGroup(f"{group.name} has order {group.n}, not a prime power")
        return group._greedy_generators(group.frattini_subgroup().members)

    return group._cached("minimal_generating_set", compute)


def _search_generating_set(group: Group) -> tuple[int, ...]:
    """Generating set used by image searches, ordered by (element order, index)."""
    if group.n == 1 or group.p_group_prime() is not None:
        gens = minimal_generating_set(group)
    else:
        gens = group.generating_set()
    orders = group.element_orders()
    return tuple(sorted(gens, key=lambda w: (orders[w], w)))


def _generator_chain(group: Group, gens: Sequence[int]):
    """Derivation schedule for the chain H_i = <gens[0..i]>.

    Returns one entry per level: (elements of H_{i-1} in discovery order,
    new elements of H_i as (element, parent, slot) with element = parent *
    gens[slot] and parent discovered earlier).
    """
    rows = group.mul_rows()
    e = group.identity
    levels = []
    known: list[int] = [e]
    known_set = {e}
    for i, w in enumerate(gens):
        new: list[tuple[int, int, int]] = []
        pool = list(known)
        if w not in known_set:
            known_set.add(w)
            new.append((w, e, i))
            pool.append(w)
        qi = 0
        while qi < len(pool):
            x = pool[qi]
            qi += 1
            row = rows[x]
            for j in range(i + 1):
                t = row[gens[j]]
                if t not in known_set:
                    known_set.add(t)
                    new.append((t, x, j))
                    pool.append(t)
        levels.append((list(known), new))
        known = pool
    return levels


def _budget_exceeded(what: str, limit: int, naive_space: int) -> BudgetExceeded:
    """The error a search raises on its first attempt past ``limit``."""
    return BudgetExceeded(
        f"{what}: {max(limit, 0) + 1} extension attempts exceed "
        f"the budget {limit} (naive candidate space {naive_space})"
    )


def _cached_search(owner, key, limit: int, what: str, search):
    """Run ``search() -> (result, attempts, naive_space)`` once per ``owner`` and ``key``.

    The attempt count is cached with the result, so a later call with a
    smaller budget raises exactly as a fresh search would.
    """
    result, attempts, naive_space = owner._cached(key, search)
    if attempts > max(limit, 0):  # a search that made no attempts never raises
        raise _budget_exceeded(what, limit, naive_space)
    return result


def _search_maps(
    source: Group,
    target: Group,
    gens: Sequence[int],
    cands: Sequence[Sequence[int]],
    injective: bool,
    limit: int,
    what: str,
) -> tuple[list[tuple[int, ...]], int]:
    """All maps on ``gens`` extending to homomorphisms source -> target.

    Candidate images are tried in the given order; each partial assignment is
    extended over the subgroup generated so far and verified on every
    (element, generator) product, with an injectivity prune when requested.
    Returns the sorted value tables and the number of extension attempts;
    ``what`` names the search in its budget error.
    """
    levels = _generator_chain(source, gens)
    srows = source.mul_rows()
    trows = target.mul_rows()
    d = len(gens)
    found: list[tuple[int, ...]] = []
    attempts = 0

    phi0 = [-1] * source.n
    phi0[source.identity] = target.identity

    def descend(level: int, phi: list[int], imgs: tuple[int, ...], used: set[int]):
        nonlocal attempts
        old_elems, new_list = levels[level]
        w = gens[level]
        last = level == d - 1
        for y in cands[level]:
            attempts += 1
            if attempts > limit:
                raise _budget_exceeded(what, limit, math.prod(map(len, cands)))
            if injective and y in used:
                continue
            phi2 = phi[:]
            used2 = set(used) if injective else used
            imgs2 = imgs + (y,)
            ok = True
            for t, parent, slot in new_list:
                v = trows[phi2[parent]][imgs2[slot]]
                if injective:
                    if v in used2:
                        ok = False
                        break
                    used2.add(v)
                phi2[t] = v
            if not ok:
                continue
            for x in old_elems:
                if phi2[srows[x][w]] != trows[phi2[x]][y]:
                    ok = False
                    break
            if not ok:
                continue
            for t, _, _ in new_list:
                rt = srows[t]
                prt = trows[phi2[t]]
                for s in range(level + 1):
                    if phi2[rt[gens[s]]] != prt[imgs2[s]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            if last:
                found.append(tuple(phi2))
            else:
                descend(level + 1, phi2, imgs2, used2)

    if d == 0:
        found.append(tuple(phi0))
    else:
        descend(0, phi0, (), {target.identity} if injective else set())
    found.sort()
    return found, attempts


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
        if group.n == 1:
            return AutSet(group, (Automorphism(group, (group.identity,)),)), 0, 1
        gens = _search_generating_set(group)
        orders = group.element_orders()
        frat = (
            group.frattini_subgroup().member_set
            if group.p_group_prime() is not None
            else frozenset()
        )
        cands = [
            [x for x in range(group.n) if orders[x] == orders[w] and x not in frat]
            for w in gens
        ]
        tables, attempts = _search_maps(
            group, group, gens, cands, injective=True, limit=limit, what=what
        )
        auts = AutSet(group, (Automorphism(group, t) for t in tables))
        return auts, attempts, math.prod(map(len, cands))

    return _cached_search(group, "all_automorphisms", limit, what, compute)


def _hom_search(source: Group, target: Group, limit: int, what: str):
    """(value tables of every homomorphism source -> target, attempts, naive space)."""
    if source.n == 1:
        return [(target.identity,)], 0, 1
    gens = _search_generating_set(source)
    sorders = source.element_orders()
    torders = target.element_orders()
    cands = [
        [t for t in range(target.n) if sorders[w] % torders[t] == 0] for w in gens
    ]
    tables, attempts = _search_maps(
        source, target, gens, cands, injective=False, limit=limit, what=what
    )
    return tables, attempts, math.prod(map(len, cands))


def enumerate_homs(source: Group, target: Group, budget: int | None = None) -> list[tuple[int, ...]]:
    """Value tables of every homomorphism from source into target."""
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    return _hom_search(source, target, limit, f"homomorphism search for {source.name}")[0]


def inner_automorphisms(group: Group) -> AutSet:
    """Conjugation maps x -> g^-1 x g, deduplicated; |result| = |G| / |Z(G)|."""

    def compute():
        seen = {}
        for g in range(group.n):
            left = group.mul[group.inv[g]]
            images = tuple(int(v) for v in group.mul[left, g])
            seen.setdefault(images, None)
        result = AutSet(group, (Automorphism(group, im) for im in seen))
        expected = group.n // len(group.center())
        if len(result) != expected:
            raise InternalDisagreement(
                f"|Inn({group.name})| = {len(result)}, expected {expected}"
            )
        return result

    return group._cached("inner_automorphisms", compute)


def is_central_automorphism(group: Group, aut: Automorphism) -> bool:
    """True iff x^-1 * aut(x) is central for every x."""
    rows = group.mul_rows()
    inv = group.inv
    zset = group.center().member_set
    images = aut.images
    return all(rows[int(inv[x])][images[x]] in zset for x in range(group.n))


def autcent(group: Group, budget: int | None = None) -> AutSet:
    """The central automorphisms, built from Hom(G/[G,G], Z(G)).

    A central automorphism is exactly a bijective map x -> x f(x) with f a
    homomorphism from G into Z(G) (Adney and Yen, Illinois J. Math. 9, 1965),
    so the set is read off :func:`homs_to_central_subgroup` through
    :func:`alpha_from_f` without enumerating the full automorphism group.
    The budget bounds that Hom search and applies on every call, cached or
    not.  The tests compare the result with the centrality filter and the
    Inn-centralizer test over :func:`all_automorphisms`.
    """
    homs = homs_to_central_subgroup(group, group.center(), budget)

    def compute():
        built = (alpha_from_f(group, f) for f in homs)
        return AutSet(group, (a for a in built if a is not None))

    return group._cached("autcent", compute)


def aut_fixing_quotient(group: Group, kernel: Subgroup, within: AutSet) -> AutSet:
    """Automorphisms in ``within`` acting trivially on the quotient by ``kernel``."""
    if kernel.parent is not group:
        raise NotNormal("subgroup belongs to a different group")
    witness = kernel.normality_witness()
    if witness is not None:
        raise NotNormal(f"subgroup is not normal (witness {witness})")
    rows = group.mul_rows()
    inv = group.inv
    nset = kernel.member_set
    keep = []
    for a in within:
        im = a.images
        if all(rows[int(inv[x])][im[x]] in nset for x in range(group.n)):
            keep.append(a)
    return AutSet(group, keep)


def aut_fixing_subgroup(group: Group, fixed: Subgroup, within: AutSet) -> AutSet:
    """Automorphisms in ``within`` fixing every element of ``fixed``."""
    members = fixed.members
    return AutSet(
        group,
        (a for a in within if all(a.images[m] == m for m in members)),
    )


def homs_to_central_subgroup(
    group: Group, target: Subgroup, budget: int | None = None
) -> list[tuple[int, ...]]:
    """Value tables of every homomorphism from the group into a central subgroup.

    Because the target is abelian these coincide with homomorphisms from the
    abelianization, which is where the enumeration runs; the search-verified
    tables are pulled back through the quotient map, sorted, and not checked
    again.  For a p-group their number is checked against the Hom order of the
    two invariant types.  The budget bounds the enumeration; its attempt count
    is cached with the result, so a later call with a smaller budget raises
    exactly as a fresh search would.
    """
    if not target.is_central():
        raise NotCentral(f"subgroup of {group.name} is not central")
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    what = f"homomorphism search for {group.name}"

    def compute():
        ab = group.abelianization()
        target_group = target.as_group()
        tables, attempts, naive_space = _hom_search(ab.target, target_group, limit, what)
        p = group.p_group_prime()
        if p is not None:
            expected = hom_order(invariants(ab.target, p), invariants(target_group, p))
            if len(tables) != expected:
                raise InternalDisagreement(
                    f"enumerated {len(tables)} homomorphisms from the abelianization "
                    f"of {group.name} into a central subgroup, Hom order is {expected}"
                )
        members = target.members
        homs = sorted(tuple(members[t[q]] for q in ab.projection) for t in tables)
        return homs, attempts, naive_space

    return _cached_search(group, ("central_homs", target.members), limit, what, compute)


def alpha_from_f(group: Group, f: Sequence[int]) -> Automorphism | None:
    """The map x -> x * f(x), returned iff it is an automorphism.

    ``f`` is the value table of a homomorphism into a central subgroup, such
    as one from :func:`homs_to_central_subgroup`; it is not checked again.
    The acceptance test is that no non-trivial element m of the image has
    f(m) = m^-1 (the image is a subgroup, so this covers the whole target);
    bijectivity of the produced table is asserted independently.
    """
    rows = group.mul_rows()
    inv = group.inv
    e = group.identity
    accepted = all(m == e or f[m] != int(inv[m]) for m in set(f))
    images = tuple(rows[x][f[x]] for x in range(group.n))
    bijective = len(set(images)) == group.n
    if accepted != bijective:
        raise InternalDisagreement(
            "the inverse-image criterion and direct bijectivity disagree "
            f"on {group.name}"
        )
    if not accepted:
        return None
    return Automorphism(group, images)


def hom_from_automorphism(group: Group, aut: Automorphism, target: Subgroup) -> tuple[int, ...]:
    """Value table of f(x) = x^-1 * aut(x), for aut centralizing G/target.

    With ``target`` central, f is a homomorphism into it; it is not checked again.
    """
    if not target.is_central():
        raise NotCentral(f"target subgroup of {group.name} is not central")
    rows = group.mul_rows()
    inv = group.inv
    values = tuple(rows[int(inv[x])][aut.images[x]] for x in range(group.n))
    tset = target.member_set
    if any(v not in tset for v in values):
        raise HypothesisViolated(
            "automorphism does not act trivially on the quotient by the target"
        )
    return values


def abelian_factor_split(
    group: Group, budget: int | None = None
) -> tuple[Subgroup, Subgroup] | None:
    """A decomposition G = H x A with A abelian non-trivial, or None.

    An abelian direct factor is central, so G = H x A holds exactly when the
    projection onto A is an idempotent non-zero f in Hom(G, Z(G)) with
    H = ker f and A = im f.  The splits are read off
    :func:`homs_to_central_subgroup`, whose budget applies on every call, and
    the one least by (|A|, A.members, H.members) is returned.  The tests
    compare it with a walk over pairs of normal subgroups.
    """
    homs = homs_to_central_subgroup(group, group.center(), budget)

    def compute():
        e = group.identity
        splits = []
        for f in homs:
            image = tuple(sorted(set(f)))
            # f is idempotent iff it fixes its image pointwise
            if len(image) > 1 and all(f[y] == y for y in image):
                kernel = tuple(x for x, y in enumerate(f) if y == e)
                splits.append((len(image), image, kernel))
        if not splits:
            return None
        _, image, kernel = min(splits)
        return group.subgroup(kernel), group.subgroup(image)

    return group._cached("abelian_factor_split", compute)


def is_purely_nonabelian(group: Group, budget: int | None = None) -> bool:
    """True iff the group has no non-trivial abelian direct factor."""
    return abelian_factor_split(group, budget) is None


def _independent_hom_count(source: Group, target: Group, budget: int | None = None) -> int:
    """|Hom(source, target)| by type formula when possible, else enumeration.

    The closed form applies when both sides are abelian p-groups over one
    prime; anything else (non-abelian source, mixed orders) falls back to a
    direct search, which stays independent of any automorphism filtering.
    The budget bounds that search; its attempt count is cached with the count.
    """
    if source.n == 1 or target.n == 1:
        return 1
    if source.is_abelian() and target.is_abelian():
        ps, pt = source.p_group_prime(), target.p_group_prime()
        if ps is not None and ps == pt:
            return hom_order(invariants(source, ps), invariants(target, pt))
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    what = f"homomorphism search for {source.name}"

    def count():
        tables, attempts, naive_space = _hom_search(source, target, limit, what)
        return len(tables), attempts, naive_space

    # the key holds the target alive, so its identity cannot be reused
    return _cached_search(source, ("hom_count", target), limit, what, count)


@dataclass(frozen=True)
class Lemma0Report:
    """Counts behind the Hom <-> quotient-centralizing-automorphism bijection."""

    group: str
    target_members: tuple[int, ...]
    hypothesis_holds: bool
    hom_count: int
    aut_quotient_count: int
    counts_match: bool | None
    center_fixing_count: int
    center_hom_count: int
    natural_iso_matches: bool

    @property
    def status(self) -> str:
        if not self.hypothesis_holds:
            return "hypothesis-fails"
        return "pass" if (self.counts_match and self.natural_iso_matches) else "fail"


def verify_lemma0(group: Group, target: Subgroup, budget: int | None = None) -> Lemma0Report:
    """Check |Hom(G, M)| = |Aut^M(G)| and |Aut^M_Z(G)| = |Hom(G/Z, M)|.

    The first equality is only claimed when M lies in the kernel of every
    homomorphism G -> M; that hypothesis is tested and reported rather than
    assumed.
    """
    homs = homs_to_central_subgroup(group, target, budget)
    e = group.identity
    hypothesis = all(f[m] == e for f in homs for m in target.members)

    # an automorphism acting trivially on G/M, M central, is central
    aut_quotient = aut_fixing_quotient(group, target, autcent(group, budget))
    center = group.center()
    center_fixing = aut_fixing_subgroup(group, center, aut_quotient)
    center_homs = _independent_hom_count(
        group.center_quotient().target, target.as_group(), budget
    )

    return Lemma0Report(
        group=group.name,
        target_members=target.members,
        hypothesis_holds=hypothesis,
        hom_count=len(homs),
        aut_quotient_count=len(aut_quotient),
        counts_match=(len(homs) == len(aut_quotient)) if hypothesis else None,
        center_fixing_count=len(center_fixing),
        center_hom_count=center_homs,
        natural_iso_matches=len(center_fixing) == center_homs,
    )


@dataclass(frozen=True)
class Lemma0aReport:
    """Central automorphism count against the Hom(G/[G,G], Z(G)) order."""

    group: str
    autcent_order: int
    hom_count: int

    @property
    def matches(self) -> bool:
        return self.autcent_order == self.hom_count

    @property
    def status(self) -> str:
        return "pass" if self.matches else "fail"


def verify_lemma0a(group: Group, budget: int | None = None) -> Lemma0aReport:
    """For purely non-abelian groups, |Autcent(G)| must equal |Hom(G/[G,G], Z(G))|."""
    if not is_purely_nonabelian(group, budget):
        raise NotPurelyNonabelian(f"{group.name} has a non-trivial abelian direct factor")
    ac = autcent(group, budget)
    homs = _independent_hom_count(
        group.abelianization().target, group.center().as_group(), budget
    )
    return Lemma0aReport(group=group.name, autcent_order=len(ac), hom_count=homs)
