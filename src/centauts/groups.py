"""Finite groups as dense index tables: construction, subgroups, quotients, series.

Every group lives on elements ``0..n-1`` with a full multiplication table that
is validated at construction (associativity on all triples, identity, inverses).
A quotient or :meth:`Subgroup.as_group` table, derived from a validated group,
is instead proved a group once by the map that defines it (see
:meth:`Group._derived`).
All objects are immutable after construction and all operations are pure, so
instances may be shared freely across threads.

A subgroup, quotient map or automorphism set belongs to the Group object it
was made from.  Every function taking a group together with such an object
requires that very group, by identity; a copy on the same table is another
group.

Such objects are views: each holds its group, and each call that returns one
builds it afresh from the group's caches.  Those caches hold plain data only
(member tuples and sets, arrays, counts, and derived groups such as quotient
targets and :meth:`Subgroup.as_group` results, which hold nothing of the group
they came from), so nothing refers back to a group from inside it.  Dropping
the last reference to a group frees it and everything derived from it at
once, by reference counting, without waiting for the cycle collector.

Associativity is checked by Light's test: if ``(x*s)*z == x*(s*z)`` for every
x, z and every s in a set S that generates the table as a magma, the table is
associative.  S is found by closing it under right multiplication only,
``w -> w*s`` for s in S.  That closure is the set of left-normed words
``(..((s1*s2)*s3)..)*sk``, which lie in the magma generated by S whatever the
table; so once they reach every element, S generates the magma and Light's
test applies, at O(n*|S|) table lookups.  On an associative table every
product of members of S is a left-normed word, so S is the same set a full
product closure picks.

The same closure picks a group's generators greedily from a normal subgroup N:
what it reaches from N and picks S is N<S>, the subgroup N and S generate, so
it picks what re-closing N and the picks after every pick would.
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

DEFAULT_ELEMENT_CAP = 512  # elements of the largest group table; read at call time
SUBGROUP_CAP = 50_000  # subgroups one enumeration may find before it raises
# Points one permutation closure may store, elements x degree, before it
# raises: 2^25 is 128 MB at four bytes a point, and holds 512 elements of
# degree 65536.
PERM_CELL_CAP = 1 << 25


def _right_closure_generators(mul: np.ndarray, start: Iterable[int] = ()) -> list[int]:
    """Elements picked in index order, each whenever it falls outside the set
    reached so far, until that set is everything.

    The set reached is ``start`` and the picks, closed under right
    multiplication by a pick.  From an empty start it is every left-normed
    word in the picks; those lie in the magma the picks generate, so when
    they reach all n elements the picks generate the table as a magma,
    associative or not.  From a normal subgroup N of a group it is N<picks>.
    """
    rows = mul.tolist()
    n = len(rows)
    gens: list[int] = []
    reached = list(start)
    seen = bytearray(n)
    for x in reached:
        seen[x] = True
    for x in range(n):
        if len(reached) == n:
            break
        if seen[x]:
            continue
        gens.append(x)
        seen[x] = True
        reached.append(x)
        _extend_right_closure(rows, reached, seen, len(reached) - 1, gens)
    return gens


def _extend_right_closure(
    rows: list[list[int]], reached: list[int], seen: bytearray, done: int, gens: list[int]
) -> None:
    """Close ``reached`` under right multiplication by ``gens``, in place.

    ``reached[:done]`` must already be closed under every generator but the
    last, so they are multiplied by the last one only; the elements after
    them are multiplied by every generator.  ``seen`` marks ``reached``.
    """
    x = gens[-1]
    for w in reached[:done]:
        t = rows[w][x]
        if not seen[t]:
            seen[t] = True
            reached.append(t)
    while done < len(reached):
        row = rows[reached[done]]
        for s in gens:
            t = row[s]
            if not seen[t]:
                seen[t] = True
                reached.append(t)
        done += 1


def _associativity_failure(mul: np.ndarray) -> tuple[int, int, int] | None:
    """A triple (x, y, z) with (x*y)*z != x*(y*z), or None if fully associative.

    Uses Light's test: associativity on all triples follows from associativity
    on triples whose middle element lies in a set that generates the table as
    a magma.  :func:`_right_closure_generators` gives such a set: its
    left-normed words already reach every element.  The witness is the first
    failing (x, z) in row-major order for the first failing generator s.
    """
    for s in _right_closure_generators(mul):
        left = mul[mul[:, s]]   # left[x, z]  = (x*s)*z
        right = mul[:, mul[s]]  # right[x, z] = x*(s*z)
        if not np.array_equal(left, right):
            x, z = np.argwhere(left != right)[0]
            return int(x), int(s), int(z)
    return None


def _coset_table(
    mul: np.ndarray, members: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quotient of the group table ``mul`` by its normal subgroup ``members``,
    on least-index coset representatives ranked in index order: the
    representatives, the projection (element -> rank of its coset) and the
    quotient's table.  The representatives are the distinct row minima, read
    by :func:`_distinct`.  Normality is the caller's to check."""
    rep_of = mul[:, np.asarray(members, dtype=np.int64)].min(axis=1)
    reps = _distinct(rep_of, len(mul))
    rank = np.full(len(mul), -1, dtype=np.int64)
    rank[reps] = np.arange(len(reps))
    return reps, rank[rep_of], rank[rep_of[mul[np.ix_(reps, reps)]]]


def _distinct(values: np.ndarray, n: int) -> np.ndarray:
    """The distinct entries, ascending, of an integer array whose entries lie
    in ``[0, n)``: the values numpy's ``unique`` returns, read off a length-n
    mask in O(n) rather than by a sort.  numpy's ``unique`` also imports
    ``numpy.ma`` on its first call, which no check otherwise loads."""
    mask = np.zeros(n, dtype=bool)
    mask[values] = True
    return np.flatnonzero(mask)


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def is_prime(n: int) -> bool:
    """True iff ``n`` is a prime, by trial division."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _order_prime(n: int) -> int | None:
    """The prime p with ``n = p**k``, k >= 1, or None."""
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


class Group:
    """A finite group on ``0..n-1`` given by its full multiplication table.

    Attributes:
        n: element count.
        mul: read-only ``n x n`` array, ``mul[x, y]`` is the product xy.
        identity: index of the identity element.
        inv: read-only length-``n`` array of inverse indices.
        name: identifier used in reports.

    ``mul`` and ``inv`` hold element indices in the smallest unsigned dtype
    that holds ``n - 1`` (uint8 up to 256 elements, uint16 up to the element
    cap), the dtype of every table of element indices derived from them.
    Gathers through them keep that dtype; arithmetic on their entries must
    widen them first.

    Every power of an element is read off one cached table,
    :meth:`powers`: the element orders, the exponent, the p-th powers of
    the Frattini subgroup, the order census of
    :func:`~centauts.abelian.invariants`, the basis and Hom rows of
    :mod:`~centauts.automorphisms` and the lemma 3 witness.
    """

    __slots__ = ("n", "mul", "identity", "inv", "name", "_cache")

    def __init__(
        self, table: Sequence[Sequence[int]] | np.ndarray, name: str | None = None
    ) -> None:
        try:
            raw = np.asarray(table)
        except ValueError:  # numpy's "inhomogeneous shape": rows of unequal length
            raise NotAGroup("table must be a non-empty square matrix, got ragged rows") from None
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1] or raw.shape[0] == 0:
            raise NotAGroup(f"table must be a non-empty square matrix, got shape {raw.shape}")
        if raw.dtype.kind not in "iu":
            raise NotAGroup(f"table entries must be integers, got dtype {raw.dtype}")
        mul = np.array(raw, dtype=np.int64)
        n = int(mul.shape[0])
        if n > DEFAULT_ELEMENT_CAP:
            raise SizeLimitExceeded(f"group order {n} exceeds the element cap {DEFAULT_ELEMENT_CAP}")
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

        self._init(mul, identity, inv, name if name is not None else f"G{n}")

    def _init(self, mul: np.ndarray, identity: int, inv: np.ndarray, name: str) -> None:
        dtype = np.min_scalar_type(len(mul) - 1)  # the element-index dtype
        self.n = int(mul.shape[0])
        self.mul = _readonly(mul.astype(dtype))
        self.identity = identity
        self.inv = _readonly(inv.astype(dtype))
        self.name = name
        self._cache: dict = {}

    @classmethod
    def _derived(cls, mul: np.ndarray, identity: int, inv: np.ndarray, name: str) -> "Group":
        """A group on a table of any integer dtype derived from a validated
        group, without the checks of ``__init__``: the caller proves the group
        axioms through the map that defines the table (a quotient's projection
        is a surjective homomorphism, a subgroup's embedding an injective
        one), and that map gives the identity and the inverses."""
        self = cls.__new__(cls)
        self._init(mul, identity, inv, name)
        return self

    # -- basics ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"<Group {self.name!r} of order {self.n}>"

    def __len__(self) -> int:
        return self.n

    def _cached(self, key, compute: Callable):
        """Per-instance memo of derived values; the group is immutable, so it
        never goes stale.  It holds plain data only (see the module docstring)."""
        try:
            return self._cache[key]
        except KeyError:
            value = compute()
            self._cache[key] = value
            return value

    def _cached_subgroup(self, key, compute: Callable[[], "Subgroup"]) -> "Subgroup":
        """A view of the subgroup ``compute()`` returns the first time; the
        cache keeps its members only."""
        return Subgroup._of(self, *self._cached(key, lambda: compute()._data()))

    def mul_rows(self) -> list[list[int]]:
        """Multiplication table as nested lists (fast scalar indexing)."""
        return self._cached("mul_rows", lambda: self.mul.tolist())

    def powers(self) -> np.ndarray:
        """The one power table: the read-only ``(e + 1) x n`` array with
        ``powers[k, x] = x^k`` for ``0 <= k <= e``, e the exponent, the first
        row after row 0 that is all identity.  Built by doubling,
        ``x^(m+k) = x^k x^m``, one gather per doubling; :class:`NotAGroup`
        if it grows past ``n + 1`` rows.  Cached."""

        def compute():
            # rows x^0 and x^1, in the element-index dtype
            table = np.stack([np.full_like(self.inv, self.identity), self.mul[self.identity]])
            while True:
                done = np.flatnonzero((table[1:] == self.identity).all(axis=1))
                if done.size:
                    return _readonly(table[: done[0] + 2])
                if len(table) > self.n + 1:
                    raise NotAGroup("element order exceeds group order")
                table = np.concatenate((table, self.mul[table[1:], table[-1]]))

        return self._cached("powers", compute)

    def element_orders(self) -> tuple[int, ...]:
        """The least k >= 1 with x^k the identity, for every x, off :meth:`powers`."""

        def compute():
            return tuple((np.argmax(self.powers()[1:] == self.identity, axis=0) + 1).tolist())

        return self._cached("element_orders", compute)

    def is_abelian(self) -> bool:
        return self._cached("is_abelian", lambda: bool(np.array_equal(self.mul, self.mul.T)))

    def exponent(self) -> int:
        return len(self.powers()) - 1

    def p_group_prime(self) -> int | None:
        """The prime p with ``n = p**k``, or None (trivial group included)."""

        return self._cached("p_prime", lambda: _order_prime(self.n))

    def prime(self) -> int:
        """The prime p with ``n = p**k``; :class:`NotPGroup` for any other order, 1 included."""
        p = self.p_group_prime()
        if p is None:
            raise NotPGroup(f"{self.name} has order {self.n}, not a prime power")
        return p

    # -- subgroup construction ------------------------------------------

    def subgroup(self, members: Iterable[int]) -> "Subgroup":
        return Subgroup(self, members)

    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup((self.identity,))

    def closure(self, seed: Iterable[int]) -> list[int]:
        """Sorted members of the subgroup generated by ``seed``."""
        rows = self.mul_rows()
        reached = [self.identity]
        seen = bytearray(self.n)
        seen[self.identity] = True
        gens: list[int] = []
        for s in seed:
            s = int(s)
            if not 0 <= s < self.n:
                raise NotAGroup(f"seed element {s} outside [0, {self.n})")
            if not seen[s]:
                gens.append(s)
                _extend_right_closure(rows, reached, seen, len(reached), gens)
        return sorted(reached)

    def subgroup_generated(self, seed: Iterable[int]) -> "Subgroup":
        return self.subgroup(self.closure(seed))

    def _greedy_generators(self, base: Sequence[int] = ()) -> tuple[int, ...]:
        """Elements picked in index order, each whenever it falls outside the
        subgroup generated by ``base`` and the picks so far, until that
        subgroup is the whole group: one right-multiplication closure from
        ``closure(base)``, exact as the base (nothing or the Frattini
        subgroup) generates a normal subgroup."""
        return tuple(_right_closure_generators(self.mul, self.closure(base)))

    def generating_set(self) -> tuple[int, ...]:
        """A small generating set found greedily in index order."""
        return self._cached("generating_set", self._greedy_generators)

    def center(self) -> "Subgroup":
        def compute():
            commutes = self.mul == self.mul.T
            return self.subgroup(int(z) for z in np.flatnonzero(commutes.all(axis=1)))

        return self._cached_subgroup("center", compute)

    def _commutators_with(self, subset: Sequence[int]) -> np.ndarray:
        """The distinct values, ascending, of [g, h] = g^-1 h^-1 g h over g in G,
        h in subset, read by :func:`_distinct`."""
        hs = np.asarray(subset, dtype=np.int64)
        n = self.n
        a = self.mul[self.inv[:, None], self.inv[hs][None, :]]
        b = self.mul[a, np.arange(n)[:, None]]
        c = self.mul[b, hs[None, :]]
        return _distinct(c, n)

    def _lower_central_series(self) -> tuple[tuple[int, ...], ...]:
        """Members of the distinct lower central terms G, [G,G], [[G,G],G], ..., down
        to the trivial subgroup or, if the series stalls, to the term it repeats."""

        def compute():
            terms = [tuple(range(self.n))]
            while len(terms[-1]) > 1:
                nxt = tuple(self.closure(self._commutators_with(terms[-1])))
                if len(nxt) == len(terms[-1]):
                    break
                terms.append(nxt)
            return tuple(terms)

        return self._cached("lower_central_series", compute)

    def commutator_subgroup(self) -> "Subgroup":
        def compute():
            terms = self._lower_central_series()
            return self.subgroup(terms[1] if len(terms) > 1 else terms[0])

        return self._cached_subgroup("commutator_subgroup", compute)

    def nilpotency_class(self) -> int:
        """Length of the lower central series down to the trivial subgroup."""
        terms = self._lower_central_series()
        if len(terms[-1]) > 1:
            raise NotNilpotent(
                f"lower central series of {self.name} stabilises at order {len(terms[-1])}"
            )
        return len(terms) - 1

    def frattini_subgroup(self) -> "Subgroup":
        """Subgroup generated by p-th powers and commutators (p-groups only)."""

        def compute():
            if self.n == 1:
                return self.trivial_subgroup()
            p_th = self.powers()[self.prime()].tolist()
            return self.subgroup_generated([*p_th, *self.commutator_subgroup().members])

        return self._cached_subgroup("frattini", compute)

    # -- quotients -------------------------------------------------------

    def quotient(self, kernel: "Subgroup") -> "QuotientMap":
        """Quotient by a normal subgroup, on least-index coset representatives."""
        if kernel.parent is not self:
            raise NotNormal("kernel belongs to a different group")
        # a central kernel is normal, so only a kernel outside the center is walked
        witness = None if kernel.is_central() else kernel.normality_witness()
        if witness is not None:
            g, m = witness
            raise NotNormal(
                f"subgroup of {self.name} is not normal: conjugate of {m} by {g} falls outside"
            )
        reps, proj, table = _coset_table(self.mul, kernel.members)
        # the QuotientMap check proves the table a group: the image of a group
        # under a surjective homomorphism is one, with identity proj(e) and
        # inverses proj(x^-1)
        name = f"{self.name}/{len(kernel)}"
        target = Group._derived(table, int(proj[self.identity]), proj[self.inv[reps]], name)
        return QuotientMap(self, target, proj)

    def _cached_quotient(self, key, kernel: Callable[[], "Subgroup"]) -> "QuotientMap":
        """A view of the quotient by ``kernel()``, made once; the cache keeps
        its target and projection, neither of which refers back to this group."""

        def compute():
            q = self.quotient(kernel())
            return q.target, q.projection

        return QuotientMap._of(self, *self._cached(key, compute))

    def abelianization(self) -> "QuotientMap":
        return self._cached_quotient("abelianization", self.commutator_subgroup)

    def center_quotient(self) -> "QuotientMap":
        return self._cached_quotient("center_quotient", self.center)

    # -- subgroup enumeration ---------------------------------------------

    def all_subgroups(self) -> tuple["Subgroup", ...]:
        everything = tuple(range(self.n))
        return Subgroup._of(self, everything, frozenset(everything)).all_subgroups()

    def normal_subgroups(self) -> tuple["Subgroup", ...]:
        """Every normal subgroup, sorted by (size, members).

        A filter of :meth:`all_subgroups`, so it shares that walk's cap:
        :class:`SizeLimitExceeded` once more than :data:`SUBGROUP_CAP` subgroups
        are found.
        """
        normal = self._cached(
            "normal_subgroups",
            lambda: tuple(s._data() for s in self.all_subgroups() if s.is_normal()),
        )
        return tuple(Subgroup._of(self, *data) for data in normal)


class Subgroup:
    """A subgroup of a parent :class:`Group`, stored as sorted element indices.

    A view: it holds its parent, while the parent's caches hold only the
    members, so the subgroups a group derives are made afresh on each call.
    """

    __slots__ = ("parent", "members", "_member_set")

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

    @classmethod
    def _of(cls, parent: Group, members: tuple[int, ...], member_set: frozenset[int]) -> "Subgroup":
        """The view over members validated when they were first computed."""
        self = cls.__new__(cls)
        self.parent = parent
        self.members = members
        self._member_set = member_set
        return self

    def _data(self) -> tuple[tuple[int, ...], frozenset[int]]:
        """The plain form its group's caches hold: members and their set."""
        return self.members, self._member_set

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

    def element_orders(self) -> tuple[int, ...]:
        parent_orders = self.parent.element_orders()
        return tuple(parent_orders[m] for m in self.members)

    def exponent(self) -> int:
        return math.lcm(*self.element_orders())

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
        """This subgroup as a standalone group; element i is ``members[i]``.

        Cached on the parent by members, so every view of one subgroup
        returns the same group, which does not refer back to the parent.
        Its table is checked once, by ``members[table]`` equal to the
        parent's products of members: then i -> members[i] is an injective
        homomorphism into a validated group, so the table is a group.
        """

        def compute():
            parent = self.parent
            members = np.array(self.members)
            products = parent.mul[np.ix_(members, members)]
            # a product past the last member clips to it, and then differs from it
            table = np.searchsorted(members, products).clip(max=len(members) - 1)
            if not np.array_equal(members[table], products):
                raise NotAGroup(f"subset of {parent.name} is not closed under multiplication")
            return Group._derived(
                table,
                self.members.index(parent.identity),
                np.searchsorted(members, parent.inv[members]),
                f"{parent.name}[{len(self.members)}]",
            )

        return self.parent._cached(("as_group", self.members), compute)

    def all_subgroups(self) -> tuple["Subgroup", ...]:
        """Every subgroup contained in this one, sorted by (size, members).

        Breadth-first walk from the trivial subgroup, closing each found
        subgroup H together with one more member g of this one.  <H, g> grows
        from H's members, which are closed under H's generators already.
        Once <H, g> is closed, every ``g^k h`` and ``h g^k`` with h in H and
        k prime to the order of g is skipped for this H: <H, y> for such a y
        contains g^k and so g, and thus equals <H, g>.
        Raises :class:`SizeLimitExceeded` once more than :data:`SUBGROUP_CAP`
        subgroups are found.  The walk is cached on the parent by this
        subgroup's members.
        """
        parent = self.parent

        def compute():
            rows = parent.mul_rows()
            orders, powers = parent.element_orders(), parent.powers()
            trivial = frozenset({parent.identity})
            found: dict[frozenset[int], list[int]] = {trivial: []}
            queue = [trivial]
            for base in queue:
                base_gens = found[base]
                base_seen = bytearray(parent.n)
                for x in base:
                    base_seen[x] = True
                skip = bytearray(base_seen)
                for g in self.members:
                    if skip[g]:
                        continue
                    gens = base_gens + [g]
                    reached = list(base)
                    _extend_right_closure(rows, reached, bytearray(base_seen), len(reached), gens)
                    closed = frozenset(reached)
                    if closed not in found:
                        if len(found) >= SUBGROUP_CAP:
                            raise SizeLimitExceeded(
                                f"more than {SUBGROUP_CAP} subgroups during enumeration"
                            )
                        found[closed] = gens
                        queue.append(closed)
                    order = orders[g]
                    for k, power in enumerate(powers[1:order, g].tolist(), 1):
                        if math.gcd(k, order) == 1:
                            row = rows[power]
                            for h in base:
                                skip[row[h]] = skip[rows[h][power]] = True
            subs = [parent.subgroup(sorted(fs))._data() for fs in found]
            subs.sort(key=lambda data: (len(data[0]), data[0]))
            return tuple(subs)

        subs = parent._cached(("all_subgroups", self.members), compute)
        return tuple(Subgroup._of(parent, *data) for data in subs)


class QuotientMap:
    """A surjective homomorphism from ``source`` onto a quotient group ``target``;
    ``projection[x]`` is the index of x's image, in a read-only int64 array.
    Construction checks the length, then that every entry lies in
    ``[0, target.n)`` and every target element is hit (by :func:`_distinct`),
    then the homomorphism property, each with :class:`NotAGroup`.

    A view like :class:`Subgroup`: it holds its source, whose caches hold
    only the target and the projection.
    """

    __slots__ = ("source", "target", "projection")

    def __init__(
        self, source: Group, target: Group, projection: Sequence[int] | np.ndarray
    ) -> None:
        parr = np.array(projection, dtype=np.int64)
        if parr.shape != (source.n,):
            raise NotAGroup("projection length does not match the source order")
        # the range first: a negative entry would wrap around in the mask
        in_range = parr.min() >= 0 and parr.max() < target.n
        if not in_range or len(_distinct(parr, target.n)) != target.n:
            raise NotAGroup("projection is not surjective onto the target")
        if not np.array_equal(parr[source.mul], target.mul[parr[:, None], parr[None, :]]):
            raise NotAGroup("projection is not a homomorphism")
        self.source = source
        self.target = target
        self.projection = _readonly(parr)

    @classmethod
    def _of(cls, source: Group, target: Group, projection: np.ndarray) -> "QuotientMap":
        """The view over a target and projection validated when first computed."""
        self = cls.__new__(cls)
        self.source = source
        self.target = target
        self.projection = projection
        return self

    def __repr__(self) -> str:
        return f"<QuotientMap {self.source.name} -> {self.target.name}>"


# -- constructors ---------------------------------------------------------


def from_cayley_table(
    table: Sequence[Sequence[int]] | np.ndarray, name: str | None = None
) -> Group:
    """Validate a multiplication table and wrap it as a :class:`Group`."""
    return Group(table, name=name)


def _compose_perms(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Product p then q: (p*q)(i) = q(p(i))."""
    return q[p]


def from_permutation_generators(
    degree: int,
    generators: Sequence[Sequence[int]],
    name: str | None = None,
) -> Group:
    """Close permutation generators into a group, indexed in discovery order.

    Discovery is breadth-first; within a frontier, products are taken
    generator-first and left-multiplier-second, which makes the element
    indexing deterministic.
    """
    return Group(_permutation_table(degree, generators), name=name)


def _permutation_table(degree: int, generators: Sequence[Sequence[int]]) -> np.ndarray:
    """The table of :func:`from_permutation_generators`, not yet validated.

    The closure composes each element x with each generator g_s once,
    recording the index of ``x*g_s``.  Every element b but the identity was
    found as ``parent(b)*g_s``, so ``a*b = (a*parent(b))*g_s``: column b of
    the table is read off column parent(b), and the table pass composes
    nothing.
    :class:`SizeLimitExceeded` before an element is stored past the element
    cap or past :data:`PERM_CELL_CAP` stored points.
    """
    if degree < 1:
        raise NotAGroup("degree must be positive")
    dtype = np.min_scalar_type(degree - 1)
    gens: list[np.ndarray] = []
    for k, g in enumerate(generators):
        perm = [int(i) for i in g]
        if len(perm) != degree or sorted(perm) != list(range(degree)):
            raise NotAGroup(f"generator {k} is not a bijection on [0, {degree})")
        gens.append(np.array(perm, dtype=dtype))
    if not gens:  # the trivial group, at any degree, with no permutation built
        return np.zeros((1, 1), dtype=np.int64)

    index: dict[bytes, int] = {}  # each element's image bytes, the one copy kept
    origin: list[tuple[int, int]] = []  # (parent(b), s) with b = parent(b)*g_s
    right: list[list[int]] = []  # right[x][s] is the index of x*g_s

    def store(perm: bytes, parent: int, s: int) -> tuple[int, bytes]:
        n, cells = len(index), (len(index) + 1) * degree
        if n >= DEFAULT_ELEMENT_CAP:
            raise SizeLimitExceeded(
                f"permutation closure exceeds the element cap {DEFAULT_ELEMENT_CAP}"
            )
        if cells > PERM_CELL_CAP:
            raise SizeLimitExceeded(
                f"permutation closure of degree {degree} exceeds the cell bound "
                f"{PERM_CELL_CAP} at element {n} ({cells} cells)"
            )
        index[perm] = n
        origin.append((parent, s))
        right.append([0] * len(gens))
        return n, perm

    frontier = [store(np.arange(degree, dtype=dtype).tobytes(), 0, 0)]
    while frontier:
        nxt = []
        for s, g in enumerate(gens):
            for x, perm in frontier:
                t = _compose_perms(np.frombuffer(perm, dtype=dtype), g).tobytes()
                if t not in index:
                    nxt.append(store(t, x, s))
                right[x][s] = index[t]
        frontier = nxt

    n, steps = len(index), np.array(right)
    cols = np.empty((n, n), dtype=np.int64)
    cols[0] = np.arange(n)
    for b, (parent, s) in enumerate(origin[1:], 1):
        cols[b] = steps[cols[parent], s]
    return cols.T


def direct_product(g: Group, h: Group, name: str | None = None) -> Group:
    """Componentwise product; the pair (a, b) gets index ``a*|H| + b``."""
    return Group(_product_table([g.mul, h.mul]), name=name or f"{g.name}x{h.name}")


def _product_table(factors: Sequence[np.ndarray], cap: int | None = None) -> np.ndarray:
    """The int64 table of the direct product of the factor tables, folded
    left: the pair (a, b) of the product so far and the next factor H gets
    index ``a*|H| + b``, computed on the widened table, as a narrow factor
    such as a ``Group.mul`` would overflow.  :class:`SizeLimitExceeded` as
    soon as a partial product has more than ``cap`` elements (the element cap
    unless given), before its table is made."""
    cap = DEFAULT_ELEMENT_CAP if cap is None else cap
    table = np.asarray(factors[0], dtype=np.int64)
    for mul in factors[1:]:
        n, m = len(table), len(mul)
        if n * m > cap:
            raise SizeLimitExceeded(f"product order {n * m} exceeds the element cap {cap}")
        table = (table[:, None, :, None] * m + mul[None, :, None, :]).reshape(n * m, n * m)
    return table
