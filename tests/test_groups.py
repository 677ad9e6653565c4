import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from centauts import (
    direct_product,
    from_cayley_table,
    from_permutation_generators,
    invariants,
    minimal_generating_set,
)
from centauts import automorphisms, groups
from centauts.corpus import (
    CHECK_NAMES,
    PER_GROUP_CHECKS,
    abelian_group,
    analyze_group,
    catalog,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    heisenberg_group,
)
from centauts.errors import (
    NotAGroup,
    NotNilpotent,
    NotNormal,
    NotPGroup,
    SizeLimitExceeded,
)

from centauts.groups import Group, QuotientMap, Subgroup, _associativity_failure, _distinct
from centauts.groups import _right_closure_generators as _magma_generators
from oracles import (
    composed_permutation_table,
    identity_of,
    naive_associativity_failure,
    naive_center,
    naive_commutator_subgroup,
    naive_element_order,
    naive_generating_set,
    naive_lower_central_series,
    naive_normal_subgroups,
    naive_powers,
    naive_subgroups,
    product_closure_generators,
    relabel,
    relabelled_group,
)


def d8():
    return from_permutation_generators(4, [[1, 2, 3, 0], [2, 1, 0, 3]], name="D8")


LATIN5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


class TestFromCayleyTable:
    def test_trivial_group(self):
        g = from_cayley_table([[0]])
        assert g.n == 1 and g.identity == 0

    def test_c2(self):
        g = from_cayley_table([[0, 1], [1, 0]])
        assert g.n == 2
        assert g.inv.tolist() == [0, 1]

    def test_d8_table_from_generators(self):
        table = d8().mul
        g = from_cayley_table(table, name="D8-copy")
        assert g.n == 8
        assert [int(z) for z in g.center().members] == naive_center(table.tolist())
        assert len(g.center()) == 2

    def test_rejects_non_square(self):
        with pytest.raises(NotAGroup):
            from_cayley_table([[0, 1]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(NotAGroup, match="square matrix, got ragged rows"):
            from_cayley_table([[0, 1], [1]])

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(NotAGroup, match="outside"):
            from_cayley_table([[0, 1], [1, 5]])

    def test_rejects_non_associative(self):
        # a quasigroup (Latin square) that is not a group
        with pytest.raises(NotAGroup, match="associativity"):
            from_cayley_table(LATIN5)

    @pytest.mark.parametrize(
        "table",
        [
            [[0, 1.7], [1, 0]],
            [[0.0, 1.0], [1.0, 0.0]],
            [["0", "1"], ["1", "0"]],
            np.array([[False, True], [True, False]]),
            [[0, 1], [1, None]],
        ],
        ids=["fraction", "float", "str", "bool", "object"],
    )
    def test_rejects_non_integer_entries(self, table):
        with pytest.raises(NotAGroup, match="integers, got dtype"):
            from_cayley_table(table)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64])
    def test_accepts_any_integer_dtype(self, dtype):
        g = from_cayley_table(np.array([[0, 1], [1, 0]], dtype=dtype))
        assert g.mul.dtype == g.inv.dtype == np.uint8 and g.inv.tolist() == [0, 1]

    def test_rejects_missing_identity(self):
        with pytest.raises(NotAGroup, match="identity"):
            from_cayley_table([[1, 1], [1, 1]])

    def test_element_cap(self):
        c513 = (np.arange(513)[:, None] + np.arange(513)[None, :]) % 513
        with pytest.raises(SizeLimitExceeded, match="group order 513 exceeds the element cap 512"):
            from_cayley_table(c513)


def _fails(table, witness):
    x, y, z = witness
    return table[table[x][y]][z] != table[x][table[y][z]]


def _magma_closure(table, seed):
    """Everything reachable from ``seed`` by products of any bracketing."""
    members = set(seed)
    while True:
        fresh = {table[a][b] for a in members for b in members} - members
        if not fresh:
            return members
        members |= fresh


class TestLightsTest:
    """Light's test over right-multiplication generators against brute force."""

    def test_latin_square_witness(self):
        witness = _associativity_failure(np.array(LATIN5))
        assert witness == (1, 1, 2)
        assert _fails(LATIN5, witness)

    def test_random_magmas(self):
        rng = np.random.default_rng(20081)
        for n in range(1, 7):
            for _ in range(300):
                mul = rng.integers(0, n, size=(n, n))
                table = mul.tolist()
                gens = _magma_generators(mul)
                assert _magma_closure(table, gens) == set(range(n))
                witness = _associativity_failure(mul)
                assert (witness is None) == (naive_associativity_failure(table) is None)
                if witness is not None:
                    assert _fails(table, witness)

    def test_single_entry_perturbations_of_catalog_tables(self, groups):
        rng = np.random.default_rng(1965)
        for g in groups.values():
            if g.n > 16:
                continue
            assert _associativity_failure(g.mul) is None
            assert naive_associativity_failure(g.mul.tolist()) is None
            for _ in range(12):
                mul = g.mul.copy()
                x, y = rng.integers(0, g.n, size=2)
                mul[x, y] = (mul[x, y] + rng.integers(1, max(g.n, 2))) % g.n
                table = mul.tolist()
                witness = _associativity_failure(mul)
                assert (witness is None) == (naive_associativity_failure(table) is None)
                if witness is not None:
                    assert _fails(table, witness)

    def test_generators_match_product_closure(self, groups):
        for g in groups.values():
            tables = [
                g.mul,
                g.abelianization().target.mul,
                g.center_quotient().target.mul,
                g.center().as_group().mul,
                g.commutator_subgroup().as_group().mul,
            ]
            if g.p_group_prime() is not None:
                tables.append(g.frattini_subgroup().as_group().mul)
            for mul in tables:
                assert _magma_generators(mul) == product_closure_generators(mul), g.name


class TestFromPermutationGenerators:
    def test_single_four_cycle_gives_c4(self):
        g = from_permutation_generators(4, [[1, 2, 3, 0]])
        assert g.n == 4
        assert sorted(g.element_orders()) == [1, 2, 4, 4]

    def test_four_cycle_and_transposition_give_d8(self):
        g = d8()
        assert g.n == 8
        assert len(g.center()) == 2

    def test_quaternion_from_regular_representation(self):
        q8 = dicyclic_group(2)
        rows = q8.mul_rows()
        gen_a = [rows[x][1] for x in range(8)]  # right multiplication by a
        gen_b = [rows[x][4] for x in range(8)]  # right multiplication by b
        g = from_permutation_generators(8, [gen_a, gen_b], name="Q8perm")
        assert g.n == 8
        assert sum(1 for o in g.element_orders() if o == 2) == 1

    def test_rejects_non_bijection(self):
        with pytest.raises(NotAGroup, match="bijection"):
            from_permutation_generators(3, [[0, 0, 1]])

    def test_closure_cap(self):
        # S6, from a 6-cycle and a transposition, has 720 elements
        with pytest.raises(SizeLimitExceeded, match="closure exceeds the element cap 512"):
            from_permutation_generators(6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]])

    def test_discovery_order_is_deterministic(self):
        a = from_permutation_generators(4, [[1, 2, 3, 0], [2, 1, 0, 3]])
        b = from_permutation_generators(4, [[1, 2, 3, 0], [2, 1, 0, 3]])
        assert np.array_equal(a.mul, b.mul)


def _regular_q8():
    rows = dicyclic_group(2).mul_rows()
    return [[rows[x][1] for x in range(8)], [rows[x][4] for x in range(8)]]


# (degree, generators) of every perm group built in the tests and demos,
# error cases included
PERM_DOCUMENTS = [
    (4, [[1, 2, 3, 0], [2, 1, 0, 3]]),
    (4, [[1, 2, 3, 0]]),
    (4, [[1, 2, 3, 0], [1, 0, 2, 3]]),
    (5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]),
    (8, _regular_q8()),
    (3, [[1, 2, 0]]),
    (3, [[0, 0, 1]]),
    (6, [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]),
    (10**12, []),
    (10**12, [[0]]),
    (0, []),
]


def _table_or_error(build, degree, generators):
    try:
        return np.asarray(build(degree, generators)).tolist()
    except (NotAGroup, SizeLimitExceeded) as exc:
        return type(exc), str(exc)


def _random_generators(rng: random.Random):
    degree = rng.randint(1, 7)
    gens = []
    for _ in range(rng.randint(0, 3)):
        perm = list(range(degree))
        rng.shuffle(perm)
        gens.append(perm)
    return degree, gens


class TestPermutationTable:
    """The table read off the closure's right multiplications, against the
    reference that composes every pair of elements."""

    @pytest.mark.parametrize("degree, generators", PERM_DOCUMENTS)
    def test_documents_match_the_reference(self, degree, generators):
        got = _table_or_error(groups._permutation_table, degree, generators)
        assert got == _table_or_error(composed_permutation_table, degree, generators)

    def test_random_generator_sets_match_the_reference(self):
        rng = random.Random(20240601)
        for _ in range(150):
            degree, gens = _random_generators(rng)
            got = _table_or_error(groups._permutation_table, degree, gens)
            assert got == _table_or_error(composed_permutation_table, degree, gens), gens

    def test_one_composition_per_element_and_generator(self, monkeypatch):
        compose = groups._compose_perms
        calls = []

        def counted(p, q):
            calls.append(1)
            return compose(p, q)

        monkeypatch.setattr(groups, "_compose_perms", counted)
        rng = random.Random(7)
        for degree, gens in PERM_DOCUMENTS[:6] + [_random_generators(rng) for _ in range(40)]:
            calls.clear()
            try:
                n = len(groups._permutation_table(degree, gens))
            except SizeLimitExceeded:
                continue
            assert len(calls) <= n * len(gens), (degree, gens)

    def test_cell_bound_fires_before_it_is_passed(self, monkeypatch):
        # a 30-cycle: the fourth element would make 120 cells, past 100
        monkeypatch.setattr(groups, "PERM_CELL_CAP", 100)
        cycle = [*range(1, 30), 0]
        with pytest.raises(SizeLimitExceeded, match=r"cell bound 100 at element 3 \(120 cells\)"):
            groups._permutation_table(30, [cycle])
        # a 10-cycle stores exactly 100 cells
        assert len(groups._permutation_table(10, [[*range(1, 10), 0]])) == 10
        with pytest.raises(SizeLimitExceeded, match=r"cell bound 100 at element 0 \(101 cells\)"):
            groups._permutation_table(101, [list(range(101))])

    def test_block_involutions_on_9000_points(self):
        # C2^9, each involution swapping 500 pairs in its own block of 1000:
        # 512 elements of degree 9000, 4.6M cells, within the bound
        gens = []
        for b in range(9):
            perm = list(range(9000))
            for a in range(1000 * b, 1000 * b + 1000, 2):
                perm[a], perm[a + 1] = perm[a + 1], perm[a]
            gens.append(perm)
        g = from_permutation_generators(9000, gens)
        assert g.n == 512 and g.is_abelian() and g.exponent() == 2


class TestDirectProduct:
    def test_c2_by_c2(self):
        g = direct_product(cyclic_group(2), cyclic_group(2))
        assert g.n == 4 and g.exponent() == 2

    def test_d8_by_c2_center(self):
        g = direct_product(dihedral_group(4), cyclic_group(2))
        assert g.n == 16 and len(g.center()) == 4

    def test_d8_by_q8_center_type(self):
        g = direct_product(dihedral_group(4), dicyclic_group(2))
        assert g.n == 64
        z = g.center()
        assert invariants(z.as_group(), 2).exps == (1, 1)

    def test_product_cap(self):
        with pytest.raises(SizeLimitExceeded, match="order 1024 exceeds the element cap 512"):
            direct_product(cyclic_group(32), cyclic_group(32))

    def test_narrow_factors_are_widened_before_the_index_arithmetic(self):
        # (a, b) -> a*32 + b reaches 511, past uint8, on uint8 factor tables
        g = direct_product(cyclic_group(16), cyclic_group(32))
        assert g.mul.dtype == np.uint16
        assert np.array_equal(g.mul, abelian_group([16, 32]).mul)


@pytest.mark.parametrize("make", [lambda: cyclic_group(256), lambda: cyclic_group(257),
                                  lambda: heisenberg_group(7)], ids=["C256", "C257", "Heis7"])
def test_every_constructor_picks_the_smallest_unsigned_dtype(make):
    # uint8 up to 256 elements, uint16 above; a quotient target and a
    # subgroup's group take the dtype of their own order
    g = make()
    regular = [g.mul[:, s].tolist() for s in g.generating_set()]
    same_order = [
        g,
        from_cayley_table(g.mul.astype(np.int64)),
        from_permutation_generators(g.n, regular),
        direct_product(g, cyclic_group(1)),
        g.quotient(g.trivial_subgroup()).target,
        g.subgroup(range(g.n)).as_group(),
    ]
    assert [h.n for h in same_order] == [g.n] * len(same_order)
    for h in [*same_order, g.center_quotient().target, g.center().as_group()]:
        assert h.mul.dtype == h.inv.dtype == (np.uint8 if h.n <= 256 else np.uint16), h.name
        assert not h.mul.flags.writeable and not h.inv.flags.writeable, h.name
    assert g.abelianization().projection.dtype == np.int64


class TestCenterAndCommutator:
    def test_abelian_center_is_everything(self):
        g = abelian_group([2, 4])
        assert g.center().members == tuple(range(8))

    def test_d8_center_size_two(self):
        g = d8()
        assert [int(x) for x in g.center().members] == naive_center(g.mul.tolist())

    def test_heisenberg_center_size_three(self):
        from centauts.corpus import heisenberg_group

        g = heisenberg_group(3)
        assert len(g.center()) == 3
        assert [int(x) for x in g.center().members] == naive_center(g.mul.tolist())

    def test_abelian_commutator_trivial(self):
        g = abelian_group([3, 9])
        assert len(g.commutator_subgroup()) == 1

    def test_d8_commutator_inside_center(self):
        g = d8()
        gamma2 = g.commutator_subgroup()
        assert len(gamma2) == 2
        assert gamma2.member_set <= g.center().member_set
        assert list(gamma2.members) == naive_commutator_subgroup(g.mul.tolist())

    def test_d8xq8_commutator_equals_center(self):
        g = direct_product(dihedral_group(4), dicyclic_group(2))
        gamma2 = g.commutator_subgroup()
        assert len(gamma2) == 4
        assert gamma2.members == g.center().members


class TestSubgroupGeneration:
    def test_empty_seed(self):
        g = d8()
        assert g.subgroup_generated([]).members == (g.identity,)

    def test_cyclic_generator_gives_whole_group(self):
        g = cyclic_group(4)
        x = g.element_orders().index(4)
        assert len(g.subgroup_generated([x])) == 4

    def test_two_reflections_give_klein_four(self):
        g = d8()
        orders = g.element_orders()
        z = [m for m in g.center().members if m != g.identity][0]
        refl = [x for x in range(8) if orders[x] == 2 and x != z]
        a = refl[0]
        b = int(g.mul[a, z])
        sub = g.subgroup_generated([a, b])
        assert len(sub) == 4 and sub.exponent() == 2

    def test_as_group_relabels_members(self, groups):
        g = groups["D8xC2"]
        rows = g.mul_rows()
        for sub in g.all_subgroups():
            members = list(sub.members)
            h = sub.as_group()
            assert h.mul.tolist() == [
                [members.index(rows[a][b]) for b in members] for a in members
            ]

    def test_subgroup_validation(self):
        g = cyclic_group(4)
        with pytest.raises(NotAGroup):
            g.subgroup([0, 1])  # not closed


class TestQuotient:
    def test_quotient_by_whole_group(self):
        g = d8()
        q = g.quotient(g.subgroup(range(g.n)))
        assert q.target.n == 1

    def test_d8_mod_center_is_klein_four(self):
        g = d8()
        q = g.quotient(g.center())
        assert q.target.n == 4
        assert q.target.exponent() == 2
        kernel = [x for x in range(g.n) if q.projection[x] == q.projection[g.identity]]
        assert tuple(kernel) == g.center().members

    def test_q8_mod_commutator_is_klein_four(self):
        g = dicyclic_group(2)
        q = g.quotient(g.commutator_subgroup())
        assert q.target.n == 4 and q.target.exponent() == 2

    def test_rejects_non_normal(self):
        g = d8()
        orders = g.element_orders()
        z = [m for m in g.center().members if m != g.identity][0]
        refl = [x for x in range(8) if orders[x] == 2 and x != z][0]
        with pytest.raises(NotNormal):
            g.quotient(g.subgroup_generated([refl]))

    def test_central_kernels_are_not_walked(self, monkeypatch):
        # Z(G), and [G,G] in class 2, are central and so normal: no walk
        def refuse(subgroup):
            raise AssertionError("a central kernel was walked for normality")

        monkeypatch.setattr(Subgroup, "normality_witness", refuse)
        class_two = 0
        for make in catalog().values():
            g = make()
            if g.p_group_prime() is not None and g.nilpotency_class() == 2:
                g.center_quotient()
                g.abelianization()
                class_two += 1
        assert class_two == 29
        monkeypatch.undo()
        self.test_rejects_non_normal()

    def test_derived_tables_pass_the_public_checks(self, monkeypatch):
        # the quotient and as_group tables a scan derives skip Group's checks;
        # each must pass them, and each quotient QuotientMap's, on its own
        made, quotients = [], []
        derived, quotient = Group._derived.__func__, Group.quotient

        def recording_derived(cls, *args):
            made.append(derived(cls, *args))
            return made[-1]

        def recording_quotient(self, kernel):
            quotients.append(quotient(self, kernel))
            return quotients[-1]

        monkeypatch.setattr(Group, "_derived", classmethod(recording_derived))
        monkeypatch.setattr(Group, "quotient", recording_quotient)
        for make in catalog().values():
            analyze_group(make(), PER_GROUP_CHECKS)
        assert len(quotients) > 47 and len(made) > len(quotients)
        for g in made:
            checked = Group(g.mul, name=g.name)
            assert checked.identity == g.identity and np.array_equal(checked.inv, g.inv)
            assert g.mul.dtype == checked.mul.dtype and g.inv.dtype == checked.inv.dtype
        for q in quotients:
            QuotientMap(q.source, Group(q.target.mul), q.projection)

    def test_a_corrupted_coset_table_is_rejected(self, monkeypatch):
        coset_table = groups._coset_table

        def corrupted(mul, members):
            reps, proj, table = coset_table(mul, members)
            table = table.copy()
            table[1, [1, 2]] = table[1, [2, 1]]  # swap two products
            return reps, proj, table

        monkeypatch.setattr(groups, "_coset_table", corrupted)
        g = d8()
        with pytest.raises(NotAGroup, match="not a homomorphism"):
            g.quotient(g.center())

    @pytest.mark.parametrize("wrap", [list, np.array], ids=["list", "array"])
    def test_a_projection_of_wrong_length_or_not_onto_is_rejected(self, wrap):
        g = d8()
        q = g.center_quotient()
        proj = q.projection.tolist()
        with pytest.raises(NotAGroup, match="projection length does not match the source order"):
            QuotientMap(g, q.target, wrap(proj[:-1]))
        # x -> identity is a homomorphism, but not onto the order-4 target
        with pytest.raises(NotAGroup, match="projection is not surjective onto the target"):
            QuotientMap(g, q.target, wrap([proj[g.identity]] * g.n))
        with pytest.raises(NotAGroup, match="projection is not surjective onto the target"):
            QuotientMap(g, q.target, wrap([q.target.n if p == proj[-1] else p for p in proj]))
        given = wrap(proj)
        projection = QuotientMap(g, q.target, given).projection
        assert projection.dtype == np.int64 and not projection.flags.writeable
        assert np.array_equal(projection, q.projection)
        if isinstance(given, np.ndarray):
            assert given.flags.writeable  # the map keeps a copy

    @pytest.mark.parametrize("wrap", [list, np.array], ids=["list", "array"])
    def test_a_projection_with_a_negative_entry_is_rejected(self, wrap):
        # -1 in place of the last target element would hit it through a
        # wrapped-around mask and pass the homomorphism check on a wrapped gather
        g = d8()
        q = g.center_quotient()
        last = q.target.n - 1
        proj = [-1 if p == last else p for p in q.projection.tolist()]
        with pytest.raises(NotAGroup, match="projection is not surjective onto the target"):
            QuotientMap(g, q.target, wrap(proj))

    def test_a_subset_not_closed_has_no_table(self):
        g = d8()
        rotation = g.element_orders().index(4)
        members = (g.identity, rotation)
        with pytest.raises(NotAGroup, match="not closed under multiplication"):
            Subgroup._of(g, members, frozenset(members)).as_group()

    def test_center_quotient_never_nontrivial_cyclic(self, corpus):
        for g in corpus:
            q = g.center_quotient().target
            assert q.n == 1 or max(q.element_orders()) < q.n, g.name


class TestSeriesAndExponent:
    def test_abelian_class_one(self):
        assert abelian_group([2, 2]).nilpotency_class() == 1

    def test_trivial_class_zero(self):
        assert from_cayley_table([[0]]).nilpotency_class() == 0

    def test_d8_class_two(self):
        assert d8().nilpotency_class() == 2

    def test_d16_class_three(self):
        assert dihedral_group(8).nilpotency_class() == 3

    def test_s3_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            dihedral_group(3).nilpotency_class()

    def test_exponents(self):
        assert from_cayley_table([[0]]).exponent() == 1
        assert dicyclic_group(2).exponent() == 4
        assert abelian_group([2, 4]).exponent() == 4


class TestPowerTable:
    """Group.powers, the one table of successive powers, against scalar products."""

    def test_matches_the_scalar_reference(self, groups):
        checked = 0
        for g in groups.values():
            for h in (
                g,
                relabelled_group(g, 37),
                g.abelianization().target,
                g.center_quotient().target,
                g.center().as_group(),
            ):
                table = h.mul.tolist()
                orders = tuple(naive_element_order(table, x) for x in range(h.n))
                powers = h.powers()
                assert powers.tolist() == naive_powers(table), h.name
                assert len(powers) - 1 == h.exponent() == math.lcm(*orders), h.name
                assert h.element_orders() == orders, h.name
                assert not powers.flags.writeable and h.powers() is powers, h.name
                checked += 1
        assert checked == 5 * len(groups)

    def test_trivial_group(self):
        assert from_cayley_table([[0]]).powers().tolist() == [[0], [0]]

    def test_a_table_with_no_exponent_raises(self):
        # 1 * 1 = 1: the powers of 1 never reach the identity 0
        bad = Group._derived(np.array([[0, 1], [1, 1]]), 0, np.array([0, 1]), "bad")
        with pytest.raises(NotAGroup, match="element order exceeds group order"):
            bad.powers()

    def test_each_group_builds_one_table(self, monkeypatch):
        assert not hasattr(automorphisms, "_power_table")
        built = []
        powers = groups.Group.powers

        def counting(self):
            if "powers" not in self._cache:
                built.append(self)
            return powers(self)

        monkeypatch.setattr(groups.Group, "powers", counting)
        for make in catalog().values():
            g = make()
            if g.p_group_prime() is not None:
                analyze_group(g, CHECK_NAMES)
        assert built
        assert all(sum(h is g for h in built) == 1 for g in built)


class TestFrattini:
    def test_elementary_abelian_trivial(self):
        assert len(abelian_group([2, 2]).frattini_subgroup()) == 1

    def test_c4(self):
        assert len(cyclic_group(4).frattini_subgroup()) == 2

    def test_d8_frattini_is_center(self):
        g = d8()
        assert g.frattini_subgroup().members == g.center().members

    def test_not_p_group(self):
        with pytest.raises(NotPGroup):
            dihedral_group(3).frattini_subgroup()

    def test_matches_maximal_subgroup_intersection(self, corpus):
        for g in corpus:
            if g.n > 64:
                continue
            p = g.p_group_prime()
            maximal = [s for s in g.all_subgroups() if len(s) == g.n // p]
            meet = set(range(g.n))
            for s in maximal:
                meet &= s.member_set
            assert g.frattini_subgroup().member_set == meet, g.name


class TestPGroupPrime:
    def test_values(self):
        assert dihedral_group(4).p_group_prime() == 2
        assert cyclic_group(27).p_group_prime() == 3
        assert abelian_group([12]).p_group_prime() is None
        assert from_cayley_table([[0]]).p_group_prime() is None

    def test_prime_raises_where_there_is_none(self):
        assert dihedral_group(4).prime() == 2
        for g in (abelian_group([12], name="C12"), from_cayley_table([[0]], name="C1")):
            with pytest.raises(NotPGroup, match=f"^{g.name} has order {g.n}, not a prime power$"):
                g.prime()


def test_same_table_means_same_indices():
    # a group built twice has one table; other groups of order 8 have others
    g = d8()
    assert np.array_equal(g.mul, d8().mul)
    assert not np.array_equal(g.mul, dicyclic_group(2).mul)
    assert not np.array_equal(g.mul, cyclic_group(8).mul)


def _a5():
    return from_permutation_generators(5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]], name="A5")


def _s4():
    return from_permutation_generators(4, [[1, 2, 3, 0], [1, 0, 2, 3]], name="S4")


@pytest.fixture(scope="module")
def derived_groups(groups):
    """Every catalog group; its abelianization and central quotient; its center,
    commutator subgroup and (p-groups) Frattini subgroup as groups; three seeded
    relabellings of each catalog group of order <= 81; and S4 and A5, whose
    lower central series stall at A4 and at the whole group."""
    rng = np.random.default_rng(1304)
    out = [_s4(), _a5()]
    for name, g in groups.items():
        out += [
            g,
            g.abelianization().target,
            g.center_quotient().target,
            g.center().as_group(),
            g.commutator_subgroup().as_group(),
        ]
        if g.p_group_prime() is not None:
            out.append(g.frattini_subgroup().as_group())
        if g.n <= 81:
            for k in range(3):
                table = relabel(g.mul.tolist(), rng.permutation(g.n).tolist())
                out.append(from_cayley_table(table, name=f"{name}~{k}"))
    return out


class TestDerivedObjectsAgainstOracles:
    """The one generator closure and the one lower-central-series walk against
    oracles that re-close from scratch."""

    def test_generating_sets(self, derived_groups):
        assert len(derived_groups) == 438
        for g in derived_groups:
            table = g.mul.tolist()
            assert list(g.generating_set()) == naive_generating_set(table), g.name
            if g.p_group_prime() is not None:
                frattini = g.frattini_subgroup().members
                expected = naive_generating_set(table, frattini)
                assert list(minimal_generating_set(g)) == expected, g.name

    def test_lower_central_series(self, derived_groups):
        stalled = 0
        for g in derived_groups:
            terms = naive_lower_central_series(g.mul.tolist())
            second = terms[1] if len(terms) > 1 else terms[0]
            assert list(g.commutator_subgroup().members) == second, g.name
            if len(terms[-1]) == 1:
                assert g.nilpotency_class() == len(terms) - 1, g.name
            else:
                stalled += 1
                match = f"^lower central series of {g.name} stabilises at order {len(terms[-1])}$"
                with pytest.raises(NotNilpotent, match=match):
                    g.nilpotency_class()
        assert stalled == 7  # S4, A5, S3 and S3/Z(S3), three relabellings of S3

    def test_perfect_group_is_its_own_commutator_subgroup(self):
        g = _a5()
        assert g.commutator_subgroup() == g.subgroup(range(g.n))
        with pytest.raises(NotNilpotent, match="stabilises at order 60$"):
            g.nilpotency_class()

    def test_series_stalling_below_the_group(self):
        g = _s4()
        assert len(g.commutator_subgroup()) == 12
        with pytest.raises(NotNilpotent, match="stabilises at order 12$"):
            g.nilpotency_class()


class TestSubgroupEnumeration:
    def test_trivial(self):
        g = from_cayley_table([[0]])
        assert len(g.all_subgroups()) == 1

    def test_klein_four_has_five(self):
        g = abelian_group([2, 2])
        subs = g.all_subgroups()
        assert len(subs) == 5
        assert [s.members for s in subs] == [
            tuple(s) for s in naive_subgroups(g.mul.tolist())
        ]

    def test_catalog_walks_match_powerset_scan(self, groups):
        # order 16 is the largest the powerset scan finishes in about 2 s;
        # the next catalog order, 27, would scan 2**26 subsets
        small = [g for g in groups.values() if g.n <= 16]
        assert len(small) == 24
        for g in small:
            assert [s.members for s in g.all_subgroups()] == [
                tuple(s) for s in naive_subgroups(g.mul.tolist())
            ], g.name

    def test_c4_has_three(self):
        assert len(cyclic_group(4).all_subgroups()) == 3

    def test_d8_has_ten(self):
        g = d8()
        subs = g.all_subgroups()
        assert [s.members for s in subs] == [
            tuple(s) for s in naive_subgroups(g.mul.tolist())
        ]
        assert len(subs) == 10

    def test_abelian_normals_are_all_subgroups(self):
        g = abelian_group([2, 4])
        assert len(g.normal_subgroups()) == len(g.all_subgroups())

    def test_q8_six_normal(self):
        g = dicyclic_group(2)
        normals = g.normal_subgroups()
        assert len(normals) == 6
        assert len(g.all_subgroups()) == 6

    def test_d8_normals_match_powerset_scan(self):
        g = d8()
        normals = g.normal_subgroups()
        assert [s.members for s in normals] == [
            tuple(s) for s in naive_normal_subgroups(g.mul.tolist())
        ]
        assert len(normals) == 6

    def test_subgroup_count_cap(self, monkeypatch):
        monkeypatch.setattr(groups, "SUBGROUP_CAP", 3)
        g = abelian_group([2, 2, 2])
        with pytest.raises(SizeLimitExceeded, match="more than 3 subgroups during enumeration"):
            g.subgroup(range(g.n)).all_subgroups()

    def test_group_walk_is_cached(self, monkeypatch):
        # the walk runs once; a later call builds new views over its members
        g = d8()
        first = g.all_subgroups()
        closures = []
        monkeypatch.setattr(
            "centauts.groups._extend_right_closure", lambda *args: closures.append(args)
        )
        again = g.all_subgroups()
        assert again == first
        assert closures == []


@st.composite
def _index_arrays(draw):
    """(values, n): a 1-D or 2-D array, possibly empty, of entries in [0, n)."""
    n = draw(st.integers(1, 300))
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.int64]))
    n = min(n, np.iinfo(dtype).max + 1)
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40))
    return draw(hnp.arrays(dtype, shape, elements=st.integers(0, n - 1))), n


@settings(deadline=None)
@given(_index_arrays())
@example((np.zeros(0, dtype=np.uint8), 1))
@example((np.zeros((3, 0), dtype=np.int64), 5))
def test_distinct_is_the_sorted_unique_values(case):
    values, n = case
    distinct = _distinct(values, n)
    assert distinct.ndim == 1
    assert distinct.tolist() == np.unique(values).tolist()


@settings(max_examples=25, deadline=None)
@given(seed=st.randoms(use_true_random=False))
def test_relabeling_invariance(seed):
    base = from_permutation_generators(4, [[1, 2, 3, 0], [2, 1, 0, 3]])
    perm = list(range(8))
    seed.shuffle(perm)
    table = relabel(base.mul.tolist(), perm)
    g = from_cayley_table(table)
    assert g.n == base.n
    assert sorted(g.element_orders()) == sorted(base.element_orders())
    assert g.exponent() == base.exponent()
    assert g.nilpotency_class() == base.nilpotency_class()
    assert len(g.center()) == len(base.center())
    assert len(g.commutator_subgroup()) == len(base.commutator_subgroup())
    assert identity_of(table) == g.identity


def test_lagrange_holds_corpuswide(corpus):
    for g in corpus:
        for s in (g.center(), g.commutator_subgroup(), g.frattini_subgroup()):
            assert g.n % len(s) == 0

def test_center_and_commutator_are_normal(corpus):
    for g in corpus:
        assert g.center().is_normal()
        assert g.commutator_subgroup().is_normal()

def test_commutator_in_center_iff_class_at_most_two(corpus):
    for g in corpus:
        inside = g.commutator_subgroup().member_set <= g.center().member_set
        assert inside == (g.nilpotency_class() <= 2), g.name
