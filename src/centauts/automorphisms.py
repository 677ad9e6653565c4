"""Central automorphisms, their filters, and the f <-> alpha duality.

The central automorphisms come from Hom(G/[G,G], Z(G)) alone, made once per
central target at the abelianization's width, as a product over a verified
basis of G/[G,G] (:func:`_basis_homs`) whose row count is checked against a
type formula.  The checks read a count, not a set: one pass reads the rows at
the prime-order columns of Z(G) (x -> x f(x) is bijective iff no such z has
f(z) = z^-1) and pulls back only the Z-fixing rows, keeping |Autcent(G)|, the
accepted mask and Aut^Z_Z(G) (:func:`autcent_order`,
:func:`center_fixing_autcent`); the tests and the acceptance gate compare
them with full-width bijectivity, which alone decides :func:`alpha_from_f`
and the oracle's ``autcent``.  Their oracles live in
:mod:`centauts.oracle`, which this module does not import: the
generator-image search behind ``enumerate_homs`` and ``all_automorphisms``,
and ``autcent``, which materializes the whole set.  A set of Homs into a
central subgroup and an :class:`AutSet` are both ``k x n`` arrays of element
indices, one value table per row, so Autcent and its filters are array
operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .abelian import _hom_count
from .errors import (
    BudgetExceeded,
    HypothesisViolated,
    InternalDisagreement,
    NotCentral,
    NotNormal,
    NotPurelyNonabelian,
    SizeLimitExceeded,
)
from .groups import Group, Subgroup, _distinct, _order_prime, _readonly, is_prime

DEFAULT_SEARCH_BUDGET = 10_000_000


@dataclass(frozen=True)
class Automorphism:
    """A permutation of a group's element indices respecting multiplication."""

    group: Group
    images: tuple[int, ...]

    def __repr__(self) -> str:
        return f"<Automorphism of {self.group.name} {self.images}>"


def _canonical(tables: np.ndarray) -> np.ndarray:
    """The distinct rows of a ``k x n`` table array, sorted lexicographically, read-only.

    A writable C-ordered input is sorted in place, so the caller must not
    read it again; any other input is copied first.  A row's big-endian
    bytes compare as the row does lexicographically, so the rows are sorted
    in place as opaque byte strings (several times faster than numpy's
    row-wise ``unique``), byte-swapped around the sort unless their
    items are big-endian or single bytes.  Equal rows have equal bytes, so
    the sort need not be stable, and an adjacent compare drops repeats.
    """
    if not tables.flags.writeable or not tables.flags.c_contiguous:
        tables = np.array(tables, order="C")
    swap = tables.dtype != tables.dtype.newbyteorder(">")
    keys = tables.view(np.dtype((np.void, tables.dtype.itemsize * tables.shape[1]))).ravel()
    if swap:
        tables.byteswap(inplace=True)
    keys.sort()
    if swap:
        tables.byteswap(inplace=True)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return _readonly(tables if keep.all() else tables[keep])


class AutSet:
    """A canonically sorted, deduplicated collection of automorphisms.

    ``tables`` is a read-only ``k x n`` array whose row i is the image table
    of the i-th automorphism, in the dtype of ``group.mul``; rows are
    distinct and sorted lexicographically.  Equal sets of one group therefore
    have equal arrays, which ``==`` compares.  ``elements`` and ``images_set``
    are built from the array on first use; their image tables are tuples of
    Python ints.  The sets a group derives are views like
    :class:`~centauts.groups.Subgroup`: the group caches only the array, and
    each call wraps it in a new set.
    """

    __slots__ = ("group", "tables", "_elements")

    def __init__(self, group: Group, automorphisms: Iterable[Automorphism]) -> None:
        rows = np.array([a.images for a in automorphisms], dtype=group.mul.dtype)
        self._init(group, _canonical(rows.reshape(-1, group.n)))

    def _init(self, group: Group, tables: np.ndarray) -> None:
        self.group = group
        self.tables = tables
        self._elements = None

    @classmethod
    def _of(cls, group: Group, tables: np.ndarray) -> "AutSet":
        """The set over ``tables``, which must already be canonical (a row mask of
        a canonical array is)."""
        self = cls.__new__(cls)
        self._init(group, tables)
        return self

    @property
    def elements(self) -> tuple[Automorphism, ...]:
        if self._elements is None:
            group = self.group
            self._elements = tuple(Automorphism(group, tuple(t)) for t in self.tables.tolist())
        return self._elements

    @property
    def images_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(a.images for a in self.elements)

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, item) -> bool:
        if isinstance(item, Automorphism) and item.group is not self.group:
            return False
        images = item.images if isinstance(item, Automorphism) else tuple(item)
        if len(images) != self.group.n:
            return False
        return bool((self.tables == np.asarray(images)).all(axis=1).any())

    def __eq__(self, other) -> bool:
        if not isinstance(other, AutSet):
            return NotImplemented
        return self.group is other.group and np.array_equal(self.tables, other.tables)

    def __hash__(self) -> int:
        return hash((id(self.group), self.tables.tobytes()))

    def __repr__(self) -> str:
        return f"<AutSet of {self.group.name}, {len(self)} automorphisms>"


def minimal_generating_set(group: Group) -> tuple[int, ...]:
    """A minimal generating set of a p-group, picked greedily in index order.

    Elements are added whenever they fall outside the subgroup generated by
    the picks so far together with the Frattini subgroup; the result has size
    equal to the rank of the Frattini quotient.
    """

    def compute():  # the Frattini subgroup raises NotPGroup for a non-p-group
        return group._greedy_generators(group.frattini_subgroup().members)

    return group._cached("minimal_generating_set", compute)


def _budget_exceeded(what: str, limit: int, naive_space: int) -> BudgetExceeded:
    """The error a search raises on its first attempt past ``limit``."""
    return BudgetExceeded(
        f"{what}: {max(limit, 0) + 1} extension attempts exceed "
        f"the budget {limit} (naive candidate space {naive_space})"
    )


def inner_automorphisms(group: Group) -> AutSet:
    """Conjugation maps x -> g^-1 x g, deduplicated; |result| = |G| / |Z(G)|.

    Row g of the ``n x n`` array of conjugation tables is gathered as
    ``mul[mul[inv[g], x], g]``; the distinct rows are the result, and their
    number is checked against |G| / |Z(G)|.
    """

    def compute():
        mul = group.mul
        conj = _canonical(mul[mul[group.inv], np.arange(group.n)[:, None]])
        expected = group.n // len(group.center())
        if len(conj) != expected:
            raise InternalDisagreement(
                f"|Inn({group.name})| = {len(conj)}, expected {expected}"
            )
        return conj

    return AutSet._of(group, group._cached("inner_automorphisms", compute))


def is_central_automorphism(group: Group, aut: Automorphism) -> bool:
    """True iff x^-1 * aut(x) is central for every x; ``aut`` must be the group's."""
    if aut.group is not group:
        raise HypothesisViolated("automorphism belongs to a different group")
    rows = group.mul_rows()
    inv = group.inv
    zset = group.center().member_set
    images = aut.images
    return all(rows[int(inv[x])][images[x]] in zset for x in range(group.n))


@dataclass(frozen=True)
class _CentralPass:
    """What the checks read of Autcent(G): ``order`` is |Autcent(G)|,
    ``accepted`` marks the rows of :func:`_ab_homs` into Z(G) whose
    x -> x f(x) is bijective, and ``center_fixing`` is Aut^Z_Z(G)'s canonical
    table array."""

    order: int
    accepted: np.ndarray
    center_fixing: np.ndarray


def _central_pass(group: Group, budget: int | None) -> _CentralPass:
    """The rows of Hom(G^ab, Z(G)) held by :func:`_ab_homs`, read at the width of Z.

    For f in Hom(G, Z), alpha: x -> x f(x) is an endomorphism, and x f(x) = 1
    puts x = f(x)^-1 in Z: alpha is bijective iff its kernel in Z, a
    subgroup, is trivial, iff (Cauchy) no z in Z of prime order has
    f(z) = z^-1.  With f = F o pi that reads F at the columns pi(z) of G^ab,
    one ``k x m`` gather, m the number of such z.  A row fixes Z iff F
    vanishes on pi(Z); those rows are accepted, and only they are pulled back
    to G and mapped to ``mul[x, f(x)]``.  The tests and the acceptance gate
    compare mask and images with full-width bijectivity.  Cached; the
    budget of the Hom search applies on every call.
    """
    center = group.center()
    tables = _ab_homs(group, center, budget)

    def compute():
        mul = group.mul
        members = np.asarray(center.members)
        columns = group.abelianization().projection[members]
        prime = np.array([is_prime(m) for m in center.element_orders()], dtype=bool)
        inverse = np.searchsorted(members, group.inv[members[prime]])
        accepted = ~(tables[:, columns[prime]] == inverse).any(axis=1)
        fixing = tables[(tables[:, columns] == center.members.index(group.identity)).all(axis=1)]
        return _CentralPass(
            order=int(accepted.sum()),
            accepted=_readonly(accepted),
            center_fixing=_canonical(mul[np.arange(group.n), _pull_back(group, center, fixing)]),
        )

    return group._cached("central_pass", compute)


def autcent_order(group: Group, budget: int | None = None) -> int:
    """|Autcent(G)|, counted without materializing the set.

    The accepted rows of :func:`_central_pass`, read at the prime-order
    columns of Z(G) alone; the tests compare its mask with full-width
    bijectivity.  The budget applies on every call, cached or not.
    """
    return _central_pass(group, budget).order


def center_fixing_autcent(group: Group, budget: int | None = None) -> AutSet:
    """Aut^Z_Z(G): the central automorphisms fixing Z(G) element-wise, cached.

    Read off the same pass as :func:`autcent_order`, which pulls back to G
    only the Z-fixing rows (always accepted), so Autcent itself is never
    materialized; the tests compare it with the Z-fixing rows of
    :func:`~centauts.oracle.autcent`.  The budget applies on every call.
    For M <= Z(G), Aut^M_Z(G) is this set filtered by
    :func:`aut_fixing_quotient`, read at a generating set: an automorphism
    trivial on G/M is trivial on G/Z(G), so it is central.
    """
    return AutSet._of(group, _central_pass(group, budget).center_fixing)


def _aut_quotient_count(group: Group, target: Subgroup, budget: int | None) -> int:
    """|Aut^M(G)| for a central M: the accepted rows of Hom(G^ab, Z(G)) with
    every value in M, counted from the mask of :func:`_central_pass`."""
    center = group.center()
    accepted = _central_pass(group, budget).accepted
    tables = _ab_homs(group, center, budget)
    in_target = np.zeros(len(center), dtype=bool)
    in_target[np.searchsorted(center.members, target.members)] = True
    return int(np.count_nonzero(accepted & in_target[tables].all(axis=1)))


def aut_fixing_quotient(group: Group, kernel: Subgroup, within: AutSet) -> AutSet:
    """Automorphisms in ``within`` acting trivially on the quotient by ``kernel``.

    The kernel must be a normal subgroup of the group (:class:`NotNormal`
    otherwise), ``within`` a set of its automorphisms (else
    :class:`HypothesisViolated`).  A central kernel is normal, so only a
    kernel outside the center is walked for a normality witness.  A row a
    of ``within.tables`` is kept iff x^-1 a(x), gathered as
    ``mul[inv[gens], a[gens]]``, lies in the kernel at every x of
    ``group.generating_set()``: with a a homomorphism and the kernel N
    normal, {x : x^-1 a(x) in N} is a subgroup, as
    (xy)^-1 a(xy) = (y^-1 n y)(y^-1 a(y)) with n = x^-1 a(x), so it is all
    of G once it holds every generator.  The kept rows of the canonical
    array are the result's array, in order.
    """
    if kernel.parent is not group:
        raise NotNormal("subgroup belongs to a different group")
    if within.group is not group:
        raise HypothesisViolated("automorphism set belongs to a different group")
    witness = None if kernel.is_central() else kernel.normality_witness()
    if witness is not None:
        raise NotNormal(f"subgroup is not normal (witness {witness})")
    gens = np.asarray(group.generating_set(), dtype=np.intp)
    in_kernel = np.zeros(group.n, dtype=bool)
    in_kernel[list(kernel.members)] = True
    tables = within.tables
    keep = in_kernel[group.mul[group.inv[gens], tables[:, gens]]].all(axis=1)
    return AutSet._of(group, _readonly(tables[keep]))


def _orders_modulo(powers: np.ndarray, in_span: np.ndarray) -> np.ndarray:
    """The order of every element modulo a subgroup, given as a mask: the
    least k >= 1 with x^k in it, read off the group's
    :meth:`~centauts.groups.Group.powers`, ``powers[k, x] = x^k``."""
    return np.argmax(in_span[powers[1:]], axis=0) + 1


def _abelian_basis(ab: Group) -> tuple[tuple[int, ...], np.ndarray]:
    """A basis b_1..b_r of a finite abelian group and every element's coordinates.

    Greedy: with S the span of the basis so far, pick the least element x of
    largest order m modulo S, and lift it to the least element b of xS of
    order m.  With S a direct summand, G = S + T and x = t + s, t in T of
    the largest order m in T; so b = t + s' with ord(s') | m, <b> meets S
    trivially, and S + <b> = S + <t> is a summand, as a cyclic subgroup of
    largest order is one of T.  Each step is checked, |<S, b>| = |S| ord(b)
    as the count of distinct products s b^c, s in S (a length-|G| mask,
    :func:`~centauts.groups._distinct`), and so is the end: the products
    b_1^c_1 ... b_r^c_r, 0 <= c_i < ord(b_i), are every element once.  A
    failed check raises :class:`InternalDisagreement`.  Returns the basis,
    in order of non-increasing order, and the read-only ``n x r`` array
    whose row g holds the exponents c_i of g; both are cached on the group.
    """

    def fail(step: str) -> InternalDisagreement:
        return InternalDisagreement(f"basis construction for {ab.name} fails at {step}")

    def compute():
        mul = ab.mul
        orders = np.asarray(ab.element_orders())
        powers = ab.powers()
        span = np.array([ab.identity])  # elements in coordinate order
        coords = np.zeros((1, 0), dtype=np.int64)
        basis: list[int] = []
        while len(span) < ab.n:
            in_span = np.zeros(ab.n, dtype=bool)
            in_span[span] = True
            relative = _orders_modulo(powers, in_span)
            top = relative.max()
            coset = mul[int(np.argmax(relative)), span]
            lifts = coset[orders[coset] == top]
            if not len(lifts):
                raise fail(f"the lift of an element of order {top} modulo the span")
            b = int(lifts.min())
            cyclic = powers[: orders[b], b]
            grown = mul[span[:, None], cyclic[None, :]].ravel()
            if len(_distinct(grown, ab.n)) != len(span) * orders[b]:
                raise fail(f"basis element {b}, whose cyclic group meets the span")
            exponent = np.tile(np.arange(len(cyclic)), len(span))[:, None]
            coords = np.concatenate((np.repeat(coords, len(cyclic), axis=0), exponent), axis=1)
            span = grown
            basis.append(b)
        if not np.array_equal(np.sort(span), np.arange(ab.n)):
            raise fail("the end: the coordinates do not cover the group once")
        by_element = np.empty_like(coords)
        by_element[span] = coords
        return tuple(basis), _readonly(by_element)

    return ab._cached("abelian_basis", compute)


# Cells of Hom rows built per chunk by _basis_homs: bounds its temporaries.
_BUILD_CELLS = 1 << 22
# Cells (rows x |G^ab| columns) of the largest Hom(G^ab, M) array _ab_homs
# builds; a larger one raises SizeLimitExceeded before any basis or row exists.
HOM_CELL_CAP = 1 << 28


def _pointwise_products(target: Group, values: list[np.ndarray], n: int) -> np.ndarray:
    """Every pointwise product v_1[j_1] ... v_s[j_s] in the target of one row
    from each ``k_i x n`` array, one row per choice (j_1, ..., j_s), the last
    index fastest; the identity row when there is no array."""
    tmul = target.mul
    rows = np.full((1, n), target.identity, dtype=tmul.dtype)
    for v in values:
        rows = tmul[rows[:, None, :], v[None, :, :]].reshape(-1, n)
    return rows


def _basis_homs(ab: Group, target: Group, rows: int) -> np.ndarray:
    """The ``rows x ab.n`` array of every homomorphism's value table for a
    finite abelian group ``ab``: Hom(ab, target) as a product over a basis.

    A homomorphism is free on the basis b_i of :func:`_abelian_basis`, with
    f(b_i) any element of the target whose order divides ord(b_i), and
    f(g) = f(b_1)^c_1 ... f(b_r)^c_r on g's coordinates.  The values
    y^c_i of every candidate y for f(b_i) are one gather from the target's
    :meth:`~centauts.groups.Group.powers`, at rows c_i mod exp(target), as
    y^c = y^(c mod exp).  ``rows`` is the Hom order by type formula; the
    product of the candidate counts must equal it
    (:class:`InternalDisagreement` otherwise) before any row is allocated.
    The basis is split in two halves of about equal row counts; each row is
    the pointwise product of a row of each half's products, one gather, in
    chunks of about :data:`_BUILD_CELLS` cells into one array that is then
    canonicalized.  So the result is the array
    :func:`~centauts.oracle._search_maps` returns: read-only, sorted, in the
    dtype of ``target.mul``.
    """
    basis, coords = _abelian_basis(ab)
    tmul, tpowers = target.mul, target.powers()
    aorders, torders = ab.element_orders(), np.asarray(target.element_orders())
    values = []  # values[i][j, g] = (j-th candidate image of b_i) ** coords[g, i]
    for i, b in enumerate(basis):
        cand = np.flatnonzero(aorders[b] % torders == 0)
        values.append(tpowers[coords[:, i] % (len(tpowers) - 1), cand[:, None]])
    sizes = [len(v) for v in values]
    if math.prod(sizes) != rows:
        raise InternalDisagreement(
            f"a basis of {ab.name} gives {math.prod(sizes)} homomorphisms, Hom order is {rows}"
        )
    split = min(
        range(len(sizes) + 1), key=lambda j: max(math.prod(sizes[:j]), math.prod(sizes[j:]))
    )
    head = _pointwise_products(target, values[:split], ab.n)
    tail = _pointwise_products(target, values[split:], ab.n)
    tables = np.empty((rows, ab.n), dtype=tmul.dtype)
    step = max(1, _BUILD_CELLS // (len(tail) * ab.n))  # head rows per chunk
    for start in range(0, len(head), step):
        block = tmul[head[start : start + step, None, :], tail[None, :, :]]
        tables[start * len(tail) : (start + len(block)) * len(tail)] = block.reshape(-1, ab.n)
    return _canonical(tables)


def _ab_homs(group: Group, target: Subgroup, budget: int | None) -> np.ndarray:
    """Hom(G/[G,G], M) for a central subgroup M, at the abelianization's width.

    The one Hom set into a central subgroup: a read-only ``k x |G^ab|``
    array whose row i is the value table of the i-th homomorphism, as
    indices into ``target.members`` (the elements of ``target.as_group()``),
    rows sorted lexicographically.  A homomorphism into an abelian group
    factors through G^ab, so these are all of Hom(G, M).  The target must be
    central (:class:`NotCentral` otherwise).  The row count k is the type
    formula :func:`~centauts.abelian._hom_count`, cached per target, so each
    call checks the bounds before any basis or row exists: one attempt per
    row (none for a trivial G^ab) past the budget raises
    :func:`_budget_exceeded`, and k x |G^ab| cells past :data:`HOM_CELL_CAP`
    raise :class:`SizeLimitExceeded`.  The rows are built from a basis of
    G^ab (:func:`_basis_homs`), their number checked against k; the tests
    compare them with the search.
    """
    if target.parent is not group or not target.is_central():
        raise NotCentral(f"subgroup of {group.name} is not central")
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    ab = group.abelianization().target
    target_group = target.as_group()
    rows = group._cached(("hom_rows", target.members), lambda: _hom_count(ab, target_group))
    if (rows if ab.n > 1 else 0) > max(limit, 0):
        raise _budget_exceeded(f"homomorphism search for {group.name}", limit, rows)
    if rows * ab.n > HOM_CELL_CAP:
        raise SizeLimitExceeded(
            f"Hom(G^ab, M) for {group.name} has {rows} rows x {ab.n} columns = "
            f"{rows * ab.n} cells, over the cell bound {HOM_CELL_CAP}"
        )

    def compute():
        tables = _basis_homs(ab, target_group, rows)
        if len(tables) != rows:
            raise InternalDisagreement(
                f"enumerated {len(tables)} homomorphisms from the abelianization "
                f"of {group.name} into a central subgroup, Hom order is {rows}"
            )
        return tables

    return group._cached(("ab_homs", target.members), compute)


def _pull_back(group: Group, target: Subgroup, tables: np.ndarray) -> np.ndarray:
    """Rows of :func:`_ab_homs` as value tables on G, ``members[tables][:, projection]``.

    The pull-back keeps the rows sorted and distinct: the projection ranks
    cosets by least representative, so the first element of G on which two
    pulled-back rows differ lies in the least coset on which the rows
    differ, and ``target.members`` is ascending.
    """
    members = np.asarray(target.members, dtype=group.mul.dtype)
    return members[tables][:, group.abelianization().projection]


def _alpha_tables(group: Group, homs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Images of x -> x * f(x) for every row f of a ``k x n`` Hom array, and which are bijective.

    Each row must be the value table of a homomorphism into the center; it
    is not checked again.  Returns the ``k x n`` image array ``mul[x, f(x)]``
    and a length-k mask of the rows bijective at full width: the map is an
    endomorphism, so it is bijective iff the identity occurs once in its
    images.  The oracle's :func:`~centauts.oracle.autcent` and the lemma 3
    witness, :func:`alpha_from_f`, call it; the checks read
    :func:`_central_pass`.
    """
    images = group.mul[np.arange(group.n), homs]
    return images, np.count_nonzero(images == group.identity, axis=1) == 1


def alpha_from_f(group: Group, f: Sequence[int]) -> Automorphism | None:
    """The map x -> x * f(x), returned iff it is an automorphism.

    ``f`` is the value table of a homomorphism into a central subgroup, such
    as a row of :func:`~centauts.oracle.homs_to_central_subgroup`; it is not
    checked again.  This is the one-row case of the batched map behind
    :func:`~centauts.oracle.autcent`: the map is kept iff it is bijective at
    full width.  The returned image table is a tuple of Python ints.
    """
    images, bijective = _alpha_tables(group, np.asarray(f).reshape(1, group.n))
    if not bijective[0]:
        return None
    return Automorphism(group, tuple(images[0].tolist()))


def _factor_element(group: Group) -> int | None:
    """The least a in Z(G) that generates a direct factor of G, or None.

    An a != 1 qualifies when its order is a prime power q^k, pi(a) has order
    q^k in G^ab too, and pi(a)^(q^(k-1)) lies outside (G^ab)^(q^k), read off
    rows q^(k-1) and q^k of G^ab's :meth:`~centauts.groups.Group.powers`.
    Then <pi(a)> is a pure cyclic subgroup of G^ab, hence a direct summand;
    a retraction of G^ab onto it, composed with pi and pi(a) -> a, is a
    retraction of G onto the central <a>, so G = ker x <a>.  Conversely a
    cyclic factor of prime-power order q^k of an abelian direct factor A
    has a projection through G^ab = H^ab x A, so its generator qualifies.
    No Hom set is built.
    """
    ab = group.abelianization()
    powers = ab.target.powers()
    orders, ab_orders = group.element_orders(), ab.target.element_orders()
    for a in group.center().members:
        m, c = orders[a], int(ab.projection[a])
        q = _order_prime(m)
        if q is not None and ab_orders[c] == m and powers[m // q, c] not in powers[m]:
            return a
    return None


def is_purely_nonabelian(group: Group) -> bool:
    """True iff the group has no non-trivial abelian direct factor.

    A non-trivial abelian direct factor has a cyclic one of prime-power
    order, so this holds iff no central element qualifies for
    :func:`_factor_element`; it reads Z(G), the projection and the powers of
    G^ab only.  The tests compare it with the idempotent rows of Hom(G, Z(G))
    and with a walk over pairs of normal subgroups.
    """
    return _factor_element(group) is None


@dataclass(frozen=True)
class Lemma0Report:
    """Counts behind the Hom <-> quotient-centralizing-automorphism bijection."""

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
    homomorphism G -> M; that hypothesis is tested, on the rows of
    :func:`_ab_homs` at the columns pi(M), and reported rather than assumed.
    |Aut^M(G)| is counted from the accepted mask of the pass behind
    :func:`autcent_order`: an automorphism acting trivially on G/M, M
    central, is central.  |Aut^M_Z(G)| counts the rows of
    :func:`center_fixing_autcent` that act trivially on G/M, read at a
    generating set by :func:`aut_fixing_quotient`.  |Hom(G/Z, M)| is a type
    formula on (G/Z)^ab, through which every map into the abelian M factors.
    """
    tables = _ab_homs(group, target, budget)
    zero = target.members.index(group.identity)
    projection = group.abelianization().projection
    hypothesis = bool((tables[:, projection[list(target.members)]] == zero).all())

    aut_quotient_count = _aut_quotient_count(group, target, budget)
    center_fixing = aut_fixing_quotient(group, target, center_fixing_autcent(group, budget))
    quotient = group.center_quotient().target
    if not quotient.is_abelian():
        quotient = quotient.abelianization().target
    center_homs = _hom_count(quotient, target.as_group())

    return Lemma0Report(
        hypothesis_holds=hypothesis,
        hom_count=len(tables),
        aut_quotient_count=aut_quotient_count,
        counts_match=(len(tables) == aut_quotient_count) if hypothesis else None,
        center_fixing_count=len(center_fixing),
        center_hom_count=center_homs,
        natural_iso_matches=len(center_fixing) == center_homs,
    )


@dataclass(frozen=True)
class Lemma0aReport:
    """Central automorphism count against the Hom(G/[G,G], Z(G)) order."""

    autcent_order: int
    hom_count: int

    @property
    def matches(self) -> bool:
        return self.autcent_order == self.hom_count

    @property
    def status(self) -> str:
        return "pass" if self.matches else "fail"


def verify_lemma0a(group: Group, budget: int | None = None) -> Lemma0aReport:
    """For purely non-abelian groups, |Autcent(G)| must equal |Hom(G/[G,G], Z(G))|.

    Purity reads no Hom row, so a group with an abelian direct factor (a
    non-trivial abelian group included) raises :class:`NotPurelyNonabelian`
    at any budget.
    """
    if not is_purely_nonabelian(group):
        raise NotPurelyNonabelian(f"{group.name} has a non-trivial abelian direct factor")
    order = autcent_order(group, budget)
    homs = _hom_count(group.abelianization().target, group.center().as_group())
    return Lemma0aReport(autcent_order=order, hom_count=homs)
