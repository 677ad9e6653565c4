"""Finite groups as dense index tables: construction, subgroups, quotients, series.

Every group lives on elements ``0..n-1`` with a full multiplication table that
is validated at construction (associativity on all triples, identity, inverses).
All objects are immutable after construction and all operations are pure, so
instances may be shared freely across threads.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    NotAGroup,
    NotNilpotent,
    NotNormal,
    NotPGroup,
    SizeLimitExceeded,
)

DEFAULT_ELEMENT_CAP = 512


def _magma_generators(mul: np.ndarray) -> list[int]:
    """A small set whose multiplicative closure under the table is everything."""
    n = mul.shape[0]
    gens: list[int] = []
    members = np.zeros(n, dtype=bool)
    for x in range(n):
        if members[x]:
            continue
        gens.append(x)
        members[x] = True
        while True:
            idx = np.flatnonzero(members)
            prods = np.unique(mul[np.ix_(idx, idx)])
            fresh = prods[~members[prods]]
            if fresh.size == 0:
                break
            members[fresh] = True
        if bool(members.all()):
            break
    return gens


def _associativity_failure(mul: np.ndarray) -> tuple[int, int, int] | None:
    """A triple (x, y, z) with (x*y)*z != x*(y*z), or None if fully associative.

    Uses Light's test: associativity on all triples follows from associativity
    on triples whose middle element lies in a generating set of the table.
    """
    for s in _magma_generators(mul):
        left = mul[mul[:, s]]   # left[x, z]  = (x*s)*z
        right = mul[:, mul[s]]  # right[x, z] = x*(s*z)
        if not np.array_equal(left, right):
            x, z = np.argwhere(left != right)[0]
            return int(x), int(s), int(z)
    return None


class _Cached:
    """Per-instance memo of derived values; instances are immutable, so it never goes stale."""

    __slots__ = ()

    def _cached(self, key, compute: Callable):
        try:
            return self._cache[key]
        except KeyError:
            value = compute()
            self._cache[key] = value
            return value


class Group(_Cached):
    """A finite group on ``0..n-1`` given by its full multiplication table.

    Attributes:
        n: element count.
        mul: read-only ``n x n`` array, ``mul[x, y]`` is the product xy.
        identity: index of the identity element.
        inv: read-only length-``n`` array of inverse indices.
        labels: optional per-element display names.
        name: identifier used in reports.
    """

    __slots__ = ("n", "mul", "identity", "inv", "labels", "name", "_cache")

    def __init__(
        self,
        table: Sequence[Sequence[int]] | np.ndarray,
        labels: Sequence[str] | None = None,
        name: str | None = None,
        max_order: int = DEFAULT_ELEMENT_CAP,
    ) -> None:
        mul = np.array(table, dtype=np.int64)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1] or mul.shape[0] == 0:
            raise NotAGroup(f"table must be a non-empty square matrix, got shape {mul.shape}")
        n = int(mul.shape[0])
        if n > max_order:
            raise SizeLimitExceeded(f"group order {n} exceeds the element cap {max_order}")
        if mul.min() < 0 or mul.max() >= n:
            bad = np.argwhere((mul < 0) | (mul >= n))[0]
            raise NotAGroup(
                f"table entry at ({bad[0]}, {bad[1]}) is {mul[bad[0], bad[1]]}, outside [0, {n})"
            )

        witness = _associativity_failure(mul)
        if witness is not None:
            x, y, z = witness
            raise NotAGroup(f"associativity fails at ({x}, {y}, {z}): (xy)z != x(yz)")

        eye = np.arange(n)
        ids = np.flatnonzero((mul == eye).all(axis=1) & (mul == eye[:, None]).all(axis=0))
        if not ids.size:
            raise NotAGroup("no two-sided identity element")
        identity = int(ids[0])

        has_inverse = mul == identity
        missing = np.flatnonzero(~has_inverse.any(axis=1))
        if missing.size:
            raise NotAGroup(f"element {int(missing[0])} has no right inverse")
        inv = np.argmax(has_inverse, axis=1)
        if not np.array_equal(mul[inv, eye], np.full(n, identity)):
            bad = int(np.flatnonzero(mul[inv, eye] != identity)[0])
            raise NotAGroup(f"inverse of element {bad} is one-sided")

        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise NotAGroup(f"got {len(labels)} labels for {n} elements")

        mul.setflags(write=False)
        inv.setflags(write=False)
        self.n = n
        self.mul = mul
        self.identity = identity
        self.inv = inv
        self.labels = labels
        self.name = name if name is not None else f"G{n}"
        self._cache: dict = {}

    # -- basics ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"<Group {self.name!r} of order {self.n}>"

    def __len__(self) -> int:
        return self.n

    def op(self, x: int, y: int) -> int:
        return int(self.mul[x, y])

    def mul_rows(self) -> list[list[int]]:
        """Multiplication table as nested lists (fast scalar indexing)."""
        return self._cached("mul_rows", lambda: self.mul.tolist())

    def element_orders(self) -> tuple[int, ...]:
        def compute():
            n = self.n
            orders = np.zeros(n, dtype=np.int64)
            cur = np.arange(n)
            base = np.arange(n)
            k = 1
            while (orders == 0).any():
                hits = (orders == 0) & (cur == self.identity)
                orders[hits] = k
                cur = self.mul[cur, base]
                k += 1
                if k > n + 1:
                    raise NotAGroup("element order exceeds group order")
            return tuple(int(o) for o in orders)

        return self._cached("element_orders", compute)

    def element_order(self, x: int) -> int:
        return self.element_orders()[x]

    def is_abelian(self) -> bool:
        return self._cached("is_abelian", lambda: bool(np.array_equal(self.mul, self.mul.T)))

    def exponent(self) -> int:
        return self._cached("exponent", lambda: math.lcm(*self.element_orders()))

    def p_group_prime(self) -> int | None:
        """The prime p with ``n = p**k``, or None (trivial group included)."""

        def compute():
            n = self.n
            if n == 1:
                return None
            p = 2
            while p * p <= n:
                if n % p == 0:
                    break
                p += 1
            else:
                p = n
            while n % p == 0:
                n //= p
            return p if n == 1 else None

        return self._cached("p_prime", compute)

    # -- subgroup construction ------------------------------------------

    def subgroup(self, members: Iterable[int]) -> "Subgroup":
        return Subgroup(self, members)

    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup((self.identity,))

    def full_subgroup(self) -> "Subgroup":
        return self.subgroup(range(self.n))

    def closure(self, seed: Iterable[int]) -> list[int]:
        """Sorted members of the subgroup generated by ``seed``."""
        rows = self.mul_rows()
        elems = [self.identity]
        seen = {self.identity}
        for s in seed:
            s = int(s)
            if not 0 <= s < self.n:
                raise NotAGroup(f"seed element {s} outside [0, {self.n})")
            if s not in seen:
                seen.add(s)
                elems.append(s)
        gens = elems[1:]
        i = 0
        while i < len(elems):
            row = rows[elems[i]]
            for s in gens:
                t = row[s]
                if t not in seen:
                    seen.add(t)
                    elems.append(t)
            i += 1
        return sorted(seen)

    def subgroup_generated(self, seed: Iterable[int]) -> "Subgroup":
        return self.subgroup(self.closure(seed))

    def _greedy_generators(self, base: Sequence[int] = ()) -> tuple[int, ...]:
        """Elements picked in index order, each whenever it falls outside the
        subgroup generated by ``base`` and the picks so far, until that
        subgroup is the whole group."""
        gens: list[int] = []
        current = set(self.closure(base))
        for x in range(self.n):
            if len(current) == self.n:
                break
            if x not in current:
                gens.append(x)
                current = set(self.closure([*base, *gens]))
        return tuple(gens)

    def generating_set(self) -> tuple[int, ...]:
        """A small generating set found greedily in index order."""
        return self._cached("generating_set", self._greedy_generators)

    def center(self) -> "Subgroup":
        def compute():
            commutes = self.mul == self.mul.T
            return self.subgroup(int(z) for z in np.flatnonzero(commutes.all(axis=1)))

        return self._cached("center", compute)

    def _commutators_with(self, subset: Sequence[int]) -> np.ndarray:
        """Unique values of [g, h] = g^-1 h^-1 g h over g in G, h in subset."""
        hs = np.asarray(subset, dtype=np.int64)
        n = self.n
        a = self.mul[self.inv[:, None], self.inv[hs][None, :]]
        b = self.mul[a, np.arange(n)[:, None]]
        c = self.mul[b, hs[None, :]]
        return np.unique(c)

    def commutator_subgroup(self) -> "Subgroup":
        def compute():
            comms = self._commutators_with(np.arange(self.n))
            return self.subgroup_generated(int(c) for c in comms)

        return self._cached("commutator_subgroup", compute)

    def nilpotency_class(self) -> int:
        """Length of the lower central series down to the trivial subgroup."""

        def compute():
            prev = tuple(range(self.n))
            klass = 0
            while len(prev) > 1:
                klass += 1
                comms = self._commutators_with(prev)
                nxt = tuple(self.closure(int(c) for c in comms))
                if len(nxt) == len(prev):
                    raise NotNilpotent(
                        f"lower central series of {self.name} stabilises at order {len(nxt)}"
                    )
                prev = nxt
            return klass

        return self._cached("nilpotency_class", compute)

    def frattini_subgroup(self) -> "Subgroup":
        """Subgroup generated by p-th powers and commutators (p-groups only)."""

        def compute():
            if self.n == 1:
                return self.trivial_subgroup()
            p = self.p_group_prime()
            if p is None:
                raise NotPGroup(f"{self.name} has order {self.n}, not a prime power")
            cur = np.arange(self.n)
            base = np.arange(self.n)
            for _ in range(p - 1):
                cur = self.mul[cur, base]
            seed = set(int(x) for x in np.unique(cur))
            seed.update(int(c) for c in self._commutators_with(base))
            return self.subgroup_generated(seed)

        return self._cached("frattini", compute)

    # -- quotients -------------------------------------------------------

    def quotient(self, kernel: "Subgroup") -> "QuotientMap":
        """Quotient by a normal subgroup, on least-index coset representatives."""
        if kernel.parent is not self:
            raise NotNormal("kernel belongs to a different group")
        witness = kernel.normality_witness()
        if witness is not None:
            g, m = witness
            raise NotNormal(
                f"subgroup of {self.name} is not normal: conjugate of {m} by {g} falls outside"
            )
        members = np.asarray(kernel.members, dtype=np.int64)
        rep_of = self.mul[:, members].min(axis=1)
        reps = np.unique(rep_of)
        rank = np.full(self.n, -1, dtype=np.int64)
        rank[reps] = np.arange(len(reps))
        proj = tuple(int(i) for i in rank[rep_of])
        table = rank[rep_of[self.mul[np.ix_(reps, reps)]]]
        labels = None
        if self.labels is not None:
            labels = tuple(f"{self.labels[int(r)]}·K" for r in reps)
        target = Group(table, labels=labels, name=f"{self.name}/{len(kernel)}")
        return QuotientMap(self, target, proj)

    def abelianization(self) -> "QuotientMap":
        return self._cached("abelianization", lambda: self.quotient(self.commutator_subgroup()))

    def center_quotient(self) -> "QuotientMap":
        return self._cached("center_quotient", lambda: self.quotient(self.center()))

    # -- subgroup enumeration ---------------------------------------------

    def all_subgroups(self) -> tuple["Subgroup", ...]:
        return self._cached("all_subgroups", lambda: self.full_subgroup().all_subgroups())

    def normal_subgroups(self) -> tuple["Subgroup", ...]:
        """Every normal subgroup, sorted by (size, members).

        A filter of :meth:`all_subgroups`, so it shares that walk's cap:
        :class:`SizeLimitExceeded` once more than 50 000 subgroups are found.
        """
        return self._cached(
            "normal_subgroups", lambda: tuple(s for s in self.all_subgroups() if s.is_normal())
        )


class Subgroup(_Cached):
    """A subgroup of a parent :class:`Group`, stored as sorted element indices."""

    __slots__ = ("parent", "members", "_member_set", "_cache")

    def __init__(self, parent: Group, members: Iterable[int]) -> None:
        uniq = sorted({int(m) for m in members})
        if not uniq:
            raise NotAGroup("a subgroup cannot be empty")
        if uniq[0] < 0 or uniq[-1] >= parent.n:
            raise NotAGroup(f"member index outside [0, {parent.n})")
        member_set = frozenset(uniq)
        if parent.identity not in member_set:
            raise NotAGroup("subgroup does not contain the identity")
        rows = parent.mul_rows()
        for a in uniq:
            row = rows[a]
            for b in uniq:
                if row[b] not in member_set:
                    raise NotAGroup(f"subset not closed: {a}*{b} = {row[b]} is outside")
        inv = parent.inv
        for a in uniq:
            if int(inv[a]) not in member_set:
                raise NotAGroup(f"subset not closed under inversion at {a}")
        if parent.n % len(uniq) != 0:
            raise NotAGroup(
                f"|subgroup| = {len(uniq)} does not divide |group| = {parent.n}"
            )
        self.parent = parent
        self.members = tuple(uniq)
        self._member_set = member_set
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self._member_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self.members == other.members

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"<Subgroup of {self.parent.name} order {len(self.members)}>"

    @property
    def member_set(self) -> frozenset[int]:
        return self._member_set

    def is_trivial(self) -> bool:
        return len(self.members) == 1

    def element_orders(self) -> tuple[int, ...]:
        parent_orders = self.parent.element_orders()
        return tuple(parent_orders[m] for m in self.members)

    def exponent(self) -> int:
        return math.lcm(*self.element_orders())

    def is_abelian(self) -> bool:
        rows = self.parent.mul_rows()
        return all(rows[a][b] == rows[b][a] for a in self.members for b in self.members)

    def is_cyclic(self) -> bool:
        return max(self.element_orders()) == len(self.members)

    def is_central(self) -> bool:
        return self._member_set <= self.parent.center().member_set

    def normality_witness(self) -> tuple[int, int] | None:
        """A pair (g, m) with g^-1 m g outside the subgroup, or None if normal."""
        rows = self.parent.mul_rows()
        inv = self.parent.inv
        for g in self.parent.generating_set():
            ginv_row = rows[int(inv[g])]
            for m in self.members:
                if rows[ginv_row[m]][g] not in self._member_set:
                    return g, m
        return None

    def is_normal(self) -> bool:
        return self.normality_witness() is None

    def as_group(self) -> Group:
        """This subgroup as a standalone group; element i is ``members[i]``."""

        def compute():
            index = {m: i for i, m in enumerate(self.members)}
            rows = self.parent.mul_rows()
            table = [[index[rows[a][b]] for b in self.members] for a in self.members]
            labels = None
            if self.parent.labels is not None:
                labels = tuple(self.parent.labels[m] for m in self.members)
            return Group(table, labels=labels, name=f"{self.parent.name}[{len(self.members)}]")

        return self._cached("as_group", compute)

    def all_subgroups(self, subgroup_cap: int = 50_000) -> tuple["Subgroup", ...]:
        """Every subgroup contained in this one, sorted by (size, members).

        Breadth-first walk from the trivial subgroup, closing each found
        subgroup together with one more member of this one.  Raises
        :class:`SizeLimitExceeded` once more than ``subgroup_cap`` subgroups
        are found; a cached walk raises the same for a smaller cap.
        """
        parent = self.parent

        def too_many() -> SizeLimitExceeded:
            return SizeLimitExceeded(f"more than {subgroup_cap} subgroups during enumeration")

        def compute():
            trivial = frozenset({parent.identity})
            found: dict[frozenset[int], list[int]] = {trivial: []}
            queue = [trivial]
            for base in queue:
                base_gens = found[base]
                for g in self.members:
                    if g in base:
                        continue
                    gens = base_gens + [g]
                    closed = frozenset(parent.closure(gens))
                    if closed not in found:
                        if len(found) >= subgroup_cap:
                            raise too_many()
                        found[closed] = gens
                        queue.append(closed)
            subs = [parent.subgroup(sorted(fs)) for fs in found]
            subs.sort(key=lambda s: (len(s), s.members))
            return tuple(subs)

        subs = self._cached("all_subgroups", compute)
        if len(subs) > max(subgroup_cap, 1):  # the trivial subgroup alone never raises
            raise too_many()
        return subs


class QuotientMap:
    """A surjective homomorphism from ``source`` onto a quotient group ``target``."""

    __slots__ = ("source", "target", "projection")

    def __init__(self, source: Group, target: Group, projection: Sequence[int]) -> None:
        proj = tuple(int(x) for x in projection)
        if len(proj) != source.n:
            raise NotAGroup("projection length does not match the source order")
        if set(proj) != set(range(target.n)):
            raise NotAGroup("projection is not surjective onto the target")
        parr = np.asarray(proj, dtype=np.int64)
        if not np.array_equal(parr[source.mul], target.mul[parr[:, None], parr[None, :]]):
            raise NotAGroup("projection is not a homomorphism")
        fibers = np.bincount(parr, minlength=target.n)
        if fibers.min() != fibers.max():
            raise NotAGroup("quotient fibers have unequal sizes")
        self.source = source
        self.target = target
        self.projection = proj

    def __repr__(self) -> str:
        return f"<QuotientMap {self.source.name} -> {self.target.name}>"

    def kernel(self) -> Subgroup:
        e = self.projection[self.source.identity]
        return self.source.subgroup(
            x for x in range(self.source.n) if self.projection[x] == e
        )


# -- constructors ---------------------------------------------------------


def from_cayley_table(
    table: Sequence[Sequence[int]] | np.ndarray,
    labels: Sequence[str] | None = None,
    name: str | None = None,
    max_order: int = DEFAULT_ELEMENT_CAP,
) -> Group:
    """Validate a multiplication table and wrap it as a :class:`Group`."""
    return Group(table, labels=labels, name=name, max_order=max_order)


def _compose_perms(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Product p then q: (p*q)(i) = q(p(i))."""
    return tuple(q[i] for i in p)


def from_permutation_generators(
    degree: int,
    generators: Sequence[Sequence[int]],
    name: str | None = None,
    max_order: int = DEFAULT_ELEMENT_CAP,
) -> Group:
    """Close permutation generators into a group, indexed in discovery order.

    Discovery is breadth-first; within a frontier, products are taken
    generator-first and left-multiplier-second, which makes the element
    indexing deterministic.
    """
    if degree < 1:
        raise NotAGroup("degree must be positive")
    gens: list[tuple[int, ...]] = []
    for k, g in enumerate(generators):
        perm = tuple(int(i) for i in g)
        if len(perm) != degree or sorted(perm) != list(range(degree)):
            raise NotAGroup(f"generator {k} is not a bijection on [0, {degree})")
        gens.append(perm)

    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in gens:
            for x in frontier:
                t = _compose_perms(x, g)
                if t not in index:
                    if len(elems) >= max_order:
                        raise SizeLimitExceeded(
                            f"permutation closure exceeds the element cap {max_order}"
                        )
                    index[t] = len(elems)
                    elems.append(t)
                    nxt.append(t)
        frontier = nxt

    table = [[index[_compose_perms(x, y)] for y in elems] for x in elems]
    return Group(table, name=name, max_order=max_order)


def direct_product(
    g: Group,
    h: Group,
    name: str | None = None,
    max_order: int = DEFAULT_ELEMENT_CAP,
) -> Group:
    """Componentwise product; the pair (a, b) gets index ``a*|H| + b``."""
    n = g.n * h.n
    if n > max_order:
        raise SizeLimitExceeded(f"product order {n} exceeds the element cap {max_order}")
    table = (g.mul[:, None, :, None] * h.n + h.mul[None, :, None, :]).reshape(n, n)
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = tuple(f"({a},{b})" for a in g.labels for b in h.labels)
    return Group(table, labels=labels, name=name or f"{g.name}x{h.name}", max_order=max_order)
