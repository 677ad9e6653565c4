"""Brute-force oracles used to freeze expected values, independent of the library.

Everything here works on raw multiplication tables (lists of lists) and uses
only exhaustive scans, so the expected values in the tests do not share code
with the implementations they check.  The one exception is
:func:`dfs_search_maps`, the recursive generator-image search the library
used before its level-wise array search: it is kept unchanged but for its
name as that search's reference, and shares with it only the derivation
schedule (``_generator_chain``) and the budget error.  Likewise
:func:`product_closure_generators` is the magma generator search the library
used before its right-multiplication closure, kept as that search's reference.
:func:`json_cache_key` is the scan's cache key before it hashed table bytes,
kept so the digest of every catalog table it pins keeps its value.
:func:`g_row_abelian_factor_split` is the abelian-factor split the library
read off the idempotent rows of Hom(G, Z(G)) on G, before it read them at
the abelianization's width and then decided purity from a pure cyclic
central element with no Hom row; it is kept as the reference of that purity
test.  :func:`pairwise_product` and :func:`stem_named` are the group-file
parser's product fold and file naming before each built its table once,
kept as references of the code that replaced them.
:func:`extend_generator_map` is the generator-image extension the lemma 3
witness used before it looked its table up among the central Homs, and
then built it from a basis coordinate of G^ab; it is kept as the reference
of that witness, which must equal the extension of its own values at a
minimal generating set.  It runs the library's array search.
:func:`types_up_to` is the recursive partition generator the lemma 4 sweep
read its types from before it built their exponent rows as one array, kept
as the reference of that array's rows and their order.
:func:`composed_permutation_table` is the permutation-group table the library
built by composing every pair of elements before it read the table off the
closure's right multiplications, kept as the reference of that table.
:func:`central_pass_matches_full_width` holds the bijectivity test the central
pass made at the width of G before it read Z(G)'s prime-order columns alone,
kept as the reference of that pass's mask and its Aut^Z_Z images.
:func:`naive_powers` is the reference of ``Group.powers``: element orders by
repeated multiplication, as the library counted them before it read them
off one power table, and each power x^k a chain of k scalar products.
"""

import hashlib
import json
import math
from itertools import permutations, product
from typing import Iterator, Sequence

import numpy as np

from centauts import AbelianType, __version__, automorphisms, oracle
from centauts.automorphisms import _budget_exceeded
from centauts.oracle import _generator_chain
from centauts import groups
from centauts.errors import InternalDisagreement, NotAGroup, SizeLimitExceeded
from centauts.groups import Group, Subgroup, direct_product


def json_cache_key(group: Group, checks: Sequence[str], budget: int) -> str:
    """sha256 of one JSON document: the version, the group file (name, format,
    n and the table as nested lists), the sorted check set and the budget."""
    doc = {"name": group.name, "format": "cayley", "n": group.n, "table": group.mul.tolist()}
    payload = json.dumps(
        {"version": __version__, "group": doc, "checks": sorted(set(checks)), "budget": budget},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def g_row_abelian_factor_split(group: Group, homs: np.ndarray) -> tuple[Subgroup, Subgroup] | None:
    """The split G = H x A least by (|A|, A, H), read off the value tables on G
    of Hom(G, Z(G)): the non-zero idempotent rows f, with A = im f, H = ker f."""
    e = group.identity
    idempotent = (np.take_along_axis(homs, homs, axis=1) == homs).all(axis=1)
    nonzero = (homs != e).any(axis=1)
    splits = []
    for f in homs[idempotent & nonzero].tolist():
        image = tuple(sorted(set(f)))
        kernel = tuple(x for x, y in enumerate(f) if y == e)
        splits.append((len(image), image, kernel))
    if not splits:
        return None
    _, image, kernel = min(splits)
    return group.subgroup(kernel), group.subgroup(image)


def partitions(total: int, length: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    """Nondecreasing tuples of ``length`` parts >= ``least`` summing to ``total``,
    in lexicographic order."""
    if length == 1:
        if total >= least:
            yield (total,)
        return
    for first in range(least, total // length + 1):
        for rest in partitions(total - first, length - 1, first):
            yield (first, *rest)


def types_up_to(p: int, max_exp: int) -> list[AbelianType]:
    """All abelian types over p of total order at most p**max_exp (trivial included).

    Ordered by total exponent, then by rank, then lexicographically on the
    exponents read from the smallest.
    """
    types: list[AbelianType] = [AbelianType(p, ())]
    for total in range(1, max_exp + 1):
        for length in range(1, total + 1):
            types.extend(AbelianType(p, parts[::-1]) for parts in partitions(total, length))
    return types


def composed_permutation_table(degree: int, generators) -> list[list[int]]:
    """The closure of the generators as tuples, breadth-first, generator-first
    then left multiplier, with entry (x, y) the index of x then y found by
    composing the two; the element cap is read from the groups module."""
    if degree < 1:
        raise NotAGroup("degree must be positive")
    gens: list[tuple[int, ...]] = []
    for k, g in enumerate(generators):
        perm = tuple(int(i) for i in g)
        if len(perm) != degree or sorted(perm) != list(range(degree)):
            raise NotAGroup(f"generator {k} is not a bijection on [0, {degree})")
        gens.append(perm)
    if not gens:
        return [[0]]

    def compose(p, q):
        return tuple(q[i] for i in p)

    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in gens:
            for x in frontier:
                t = compose(x, g)
                if t not in index:
                    if len(elems) >= groups.DEFAULT_ELEMENT_CAP:
                        raise SizeLimitExceeded(
                            f"permutation closure exceeds the element cap {groups.DEFAULT_ELEMENT_CAP}"
                        )
                    index[t] = len(elems)
                    elems.append(t)
                    nxt.append(t)
        frontier = nxt
    return [[index[compose(x, y)] for y in elems] for x in elems]


def pairwise_product(parts: Sequence[Group], name: str | None) -> Group:
    """The ``product`` group-file format by pairwise direct products, left to
    right, a named result wrapped once more under its name."""
    group = parts[0]
    for part in parts[1:]:
        group = direct_product(group, part)
    if name is not None:
        group = Group(group.mul, name=name)
    return group


def stem_named(group: Group, stem: str) -> Group:
    """A parsed group file's group, wrapped again under the file stem when it
    carries the default name ``G<n>``."""
    if group.name == f"G{group.n}":
        return Group(group.mul, name=stem)
    return group


def identity_of(table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise AssertionError("table has no identity")


def naive_center(table):
    n = len(table)
    return sorted(
        z for z in range(n) if all(table[z][g] == table[g][z] for g in range(n))
    )


def naive_associativity_failure(table):
    """The first triple (x, y, z) in lexicographic order with (xy)z != x(yz), or None."""
    n = len(table)
    for x, y, z in product(range(n), repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return x, y, z
    return None


def product_closure_generators(table) -> list[int]:
    """Elements picked in index order, each whenever it falls outside the
    closure of the picks under all products, until that closure is everything."""
    mul = np.asarray(table)
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


def scalar_table(elements, mul):
    """The index table of ``mul`` on ``elements``, one scalar product per entry."""
    index = {t: k for k, t in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def naive_element_order(table, x):
    e = identity_of(table)
    k, cur = 1, x
    while cur != e:
        cur = table[cur][x]
        k += 1
    return k


def naive_powers(table) -> list[list[int]]:
    """Rows k = 0..e of x^k, e the lcm of the orders by repeated
    multiplication, each x^k a product of k scalar steps from the identity."""
    e = math.lcm(*(naive_element_order(table, x) for x in range(len(table))))
    rows = [[identity_of(table)] * len(table)]
    for _ in range(e):
        rows.append([table[y][x] for x, y in enumerate(rows[-1])])
    return rows


def naive_closure(table, seed):
    e = identity_of(table)
    members = {e}
    frontier = [e]
    seed = list(seed)
    for s in seed:
        if s not in members:
            members.add(s)
            frontier.append(s)
    while frontier:
        x = frontier.pop()
        for s in seed:
            for t in (table[x][s], table[s][x]):
                if t not in members:
                    members.add(t)
                    frontier.append(t)
    return sorted(members)


def naive_commutator_subgroup(table):
    n = len(table)
    e = identity_of(table)
    invs = [next(y for y in range(n) if table[x][y] == e) for x in range(n)]
    comms = {
        table[table[table[invs[g]][invs[h]]][g]][h]
        for g in range(n)
        for h in range(n)
    }
    return naive_closure(table, comms)


def naive_subgroups(table):
    """All closed subsets containing the identity, by powerset scan (small n)."""
    n = len(table)
    e = identity_of(table)
    others = [x for x in range(n) if x != e]
    found = []
    for bits in range(1 << len(others)):
        subset = {e} | {others[i] for i in range(len(others)) if bits >> i & 1}
        if all(table[a][b] in subset for a in subset for b in subset):
            found.append(tuple(sorted(subset)))
    return sorted(found, key=lambda s: (len(s), s))


def naive_normal_subgroups(table):
    n = len(table)
    e = identity_of(table)
    invs = [next(y for y in range(n) if table[x][y] == e) for x in range(n)]
    result = []
    for sub in naive_subgroups(table):
        sset = set(sub)
        if all(table[table[invs[g]][m]][g] in sset for g in range(n) for m in sub):
            result.append(sub)
    return result


def naive_all_automorphisms(table):
    """Every automorphism by filtering all identity-fixing permutations (n <= 8)."""
    n = len(table)
    e = identity_of(table)
    others = [x for x in range(n) if x != e]
    auts = []
    for perm in permutations(others):
        images = [0] * n
        images[e] = e
        for spot, val in zip(others, perm):
            images[spot] = val
        if all(
            images[table[x][y]] == table[images[x]][images[y]]
            for x in range(n)
            for y in range(n)
        ):
            auts.append(tuple(images))
    return sorted(auts)


def naive_generating_set(table, base=()):
    """Elements picked in index order, each whenever it falls outside the
    subgroup generated by ``base`` and the picks so far, re-closed from
    scratch after every pick, until that subgroup is everything."""
    n = len(table)
    gens = []
    current = naive_closure(table, base)
    for x in range(n):
        if len(current) == n:
            break
        if x not in current:
            gens.append(x)
            current = naive_closure(table, [*base, *gens])
    return gens


def naive_lower_central_series(table):
    """Member lists of the distinct terms G, [G,G], [[G,G],G], ..., stopping at
    the trivial subgroup or before the first term equal to the one before it."""
    n = len(table)
    e = identity_of(table)
    invs = [next(y for y in range(n) if table[x][y] == e) for x in range(n)]
    terms = [list(range(n))]
    while len(terms[-1]) > 1:
        comms = {
            table[table[table[invs[g]][invs[h]]][g]][h] for g in range(n) for h in terms[-1]
        }
        nxt = naive_closure(table, comms)
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return terms


def brute_force_hom_count(table_a, table_b):
    """Count homomorphisms by trying every generator-image tuple (small inputs)."""
    gens = naive_generating_set(table_a)
    if not gens:
        return 1
    n_a, n_b = len(table_a), len(table_b)
    e_a, e_b = identity_of(table_a), identity_of(table_b)
    count = 0
    for images in product(range(n_b), repeat=len(gens)):
        values = [-1] * n_a
        values[e_a] = e_b
        assign = dict(zip(gens, images))
        pool = [e_a]
        for g in gens:
            if values[g] == -1:
                values[g] = assign[g]
                pool.append(g)
        ok = True
        qi = 0
        while qi < len(pool) and ok:
            x = pool[qi]
            qi += 1
            for g in gens:
                t = table_a[x][g]
                v = table_b[values[x]][assign[g]]
                if values[t] == -1:
                    values[t] = v
                    pool.append(t)
                elif values[t] != v:
                    ok = False
                    break
        if not ok or any(v == -1 for v in values):
            continue
        if all(
            values[table_a[x][y]] == table_b[values[x]][values[y]]
            for x in range(n_a)
            for y in range(n_a)
        ):
            count += 1
    return count


def order_census_hom_count(exps, p, table_b):
    """|Hom(A, B)| for A of type ``exps``: product over factors of the number
    of target elements whose order divides p**a (an element-count scan)."""
    n_b = len(table_b)
    count = 1
    for a in exps:
        want = p**a
        count *= sum(1 for y in range(n_b) if want % naive_element_order(table_b, y) == 0)
    return count


def relabel(table, perm):
    """Conjugate a multiplication table by a permutation of the element names."""
    n = len(table)
    inv = [0] * n
    for i, v in enumerate(perm):
        inv[v] = i
    return [[perm[table[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]


def is_abelian_subgroup(sub: Subgroup) -> bool:
    """Whether every two members of a subgroup commute, by a scan of all pairs."""
    rows = sub.parent.mul_rows()
    return all(rows[a][b] == rows[b][a] for a in sub.members for b in sub.members)


def relabelled_group(group: Group, seed: int) -> Group:
    """A copy of the group on element indices shuffled by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(group.n).tolist()
    return Group(relabel(group.mul.tolist(), perm), name=f"{group.name}~{seed}")


def naive_alpha(table, f):
    """The image table of x -> x f(x) for a value table f, or None when the
    map is not a bijection (decided by counting distinct images)."""
    images = tuple(table[x][f[x]] for x in range(len(table)))
    return images if len(set(images)) == len(table) else None


def central_pass_matches_full_width(group: Group) -> bool:
    """Whether the accepted mask and Aut^Z_Z images of the library's central
    pass are those of x -> x f(x) read at the full width of G.

    Each row f of Hom(G, Z(G)) is mapped to ``mul[x, f(x)]``, an
    endomorphism, so it is bijective iff the identity occurs once in the
    row; Aut^Z_Z is the sorted distinct images of the bijective rows with
    f = 1 on Z(G).  The pass made this test on every row before it read
    Hom(G^ab, Z) at the prime-order columns of Z alone.
    """
    homs = oracle.homs_to_central_subgroup(group, group.center())
    images = group.mul[np.arange(group.n), homs]
    bijective = np.count_nonzero(images == group.identity, axis=1) == 1
    fixing = bijective & (homs[:, list(group.center().members)] == group.identity).all(axis=1)
    central = automorphisms._central_pass(group, None)
    return np.array_equal(central.accepted, bijective) and np.array_equal(
        central.center_fixing, np.unique(images[fixing], axis=0)
    )


def naive_fixing_quotient(table, kernel, auts):
    """The sorted image tables in ``auts`` with x^-1 a(x) in ``kernel`` for every x."""
    n = len(table)
    e = identity_of(table)
    invs = [next(y for y in range(n) if table[x][y] == e) for x in range(n)]
    kset = set(kernel)
    return sorted(a for a in auts if all(table[invs[x]][a[x]] in kset for x in range(n)))


def naive_fixing_subgroup(fixed, auts):
    """The sorted image tables in ``auts`` that fix every element of ``fixed``."""
    return sorted(a for a in auts if all(a[m] == m for m in fixed))


def dfs_search_maps(
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
        old_elems, new_list, _ = levels[level]
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
    # descend refers to itself, a reference cycle through its closure that
    # would keep ``found`` alive until the next cycle collection
    del descend
    found.sort()
    return found, attempts


def extend_generator_map(group: Group, gens: list[int], images: list[int]) -> tuple[int, ...]:
    """Extend a generator assignment multiplicatively; the result must be total.

    Returns the value table as a tuple of Python ints.  The search is looked
    up on the module, so a test that records its calls sees this one.
    """
    # one candidate per generator: at most one extension attempt per level
    tables, _ = oracle._search_maps(
        group, group, gens, [[y] for y in images], injective=False,
        limit=len(images), what=f"generator extension for {group.name}",
    )
    if not len(tables):
        raise InternalDisagreement(
            f"generator assignment on {group.name} does not extend to a homomorphism"
        )
    if len(group.closure(gens)) != group.n:
        raise InternalDisagreement(f"generators do not generate {group.name}")
    return tuple(tables[0].tolist())
