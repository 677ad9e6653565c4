"""Two-sided verification of the central-automorphism characterizations.

Each verifier evaluates a structural condition and an exhaustive-enumeration
oracle independently and reports whether they agree; a disagreement is a
counterexample and carries a serializable witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import (
    AbelianType,
    _growth_disagreement,
    _hom_exponent_table,
    _type_exponents,
    class_two_invariants,
)
from .automorphisms import (
    AutSet,
    alpha_from_f,
    aut_fixing_quotient,
    autcent_order,
    center_fixing_autcent,
    inner_automorphisms,
    is_central_automorphism,
    is_purely_nonabelian,
    _abelian_basis,
    _factor_element,
)
from .errors import InternalDisagreement, WrongClass
from .groups import Group
from .oracle import autcent


def _typed(value, kind: type, what: str, nullable: bool = False):
    """``value`` if it is a ``kind`` (an int is never a bool), or None when ``nullable``.

    The JSON decoders use it so that a corrupt document raises TypeError.
    """
    if value is None and nullable:
        return None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise TypeError(f"{what} must be {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class ConditionSide:
    """Structural side of the center-fixing criterion for class-2 p-groups."""

    r_eq_s: bool
    residual_iso: bool
    exp_eq: bool

    @property
    def all_met(self) -> bool:
        return self.r_eq_s and self.residual_iso and self.exp_eq

    def to_json(self) -> dict:
        return {
            "rEqS": self.r_eq_s,
            "residualIso": self.residual_iso,
            "expEq": self.exp_eq,
            "all": self.all_met,
        }

    @classmethod
    def from_json(cls, doc: dict) -> ConditionSide:
        side = cls(*(_typed(doc[k], bool, k) for k in ("rEqS", "residualIso", "expEq")))
        if _typed(doc["all"], bool, "all") != side.all_met:
            raise ValueError(f"'all' disagrees with the condition flags in {doc}")
        return side


@dataclass(frozen=True)
class OracleSide:
    """Enumeration side: orders of the automorphism families and set equalities."""

    autcent_order: int
    aut_zz_order: int
    inn_order: int
    autcent_equals_aut_zz: bool
    autcent_equals_inn: bool

    def to_json(self) -> dict:
        return {
            "autcentOrder": self.autcent_order,
            "autZZOrder": self.aut_zz_order,
            "innOrder": self.inn_order,
            "autcentEqualsAutZZ": self.autcent_equals_aut_zz,
            "autcentEqualsInn": self.autcent_equals_inn,
        }

    @classmethod
    def from_json(cls, doc: dict) -> OracleSide:
        return cls(
            *(_typed(doc[k], int, k) for k in ("autcentOrder", "autZZOrder", "innOrder")),
            *(_typed(doc[k], bool, k) for k in ("autcentEqualsAutZZ", "autcentEqualsInn")),
        )


@dataclass(frozen=True)
class TheoremResult:
    """Center-fixing criterion against set equality, with a witness on a disagreement."""

    condition: ConditionSide
    oracle: OracleSide
    witness: dict | None = None

    @property
    def agree(self) -> bool:
        return self.condition.all_met == self.oracle.autcent_equals_aut_zz


def theorem_condition(group: Group) -> ConditionSide:
    """Evaluate the three structural conditions of the center-fixing criterion."""
    inv = class_two_invariants(group)
    return ConditionSide(
        r_eq_s=inv.r == inv.s,
        residual_iso=inv.z_residual.exps == inv.ab_residual.exps,
        exp_eq=inv.exp_center == inv.exp_commutator,
    )


def _all_central(group: Group, auts: AutSet) -> bool:
    """True iff every automorphism in ``auts`` is central, tested on its own rows."""
    return len(aut_fixing_quotient(group, group.center(), auts)) == len(auts)


def _equals_autcent(group: Group, auts: AutSet, budget: int | None) -> bool:
    """Set equality with Autcent(G) as a verified inclusion plus equal counts:
    every row of ``auts`` is central, and there are |Autcent(G)| of them."""
    return _all_central(group, auts) and len(auts) == autcent_order(group, budget)


def verify_theorem(group: Group, budget: int | None = None) -> TheoremResult:
    """Compare the structural criterion with exhaustive set equality.

    The oracle enumerates Hom(G/[G,G], Z(G)) and reads every row at the
    prime-order columns of Z(G): ``autcentOrder`` is the count of
    :func:`autcent_order`, and Aut^Z_Z(G) is the set of
    :func:`center_fixing_autcent`.  Set equality, never just cardinality,
    is decided as a verified inclusion (every row of Aut^Z_Z(G), and of
    Inn(G), tested central) plus equal counts, so Autcent(G) is not
    materialized; a disagreement builds it with the oracle's
    :func:`~centauts.oracle.autcent` to name the first automorphism in one
    set and not the other.
    """
    condition = theorem_condition(group)  # raises WrongClass / NotPGroup first
    order = autcent_order(group, budget)
    azz = center_fixing_autcent(group, budget)
    inner = inner_automorphisms(group)
    if not _all_central(group, azz):
        raise InternalDisagreement(
            f"center-fixing central automorphisms escape Autcent on {group.name}"
        )
    oracle = OracleSide(
        autcent_order=order,
        aut_zz_order=len(azz),
        inn_order=len(inner),
        autcent_equals_aut_zz=len(azz) == order,
        autcent_equals_inn=_equals_autcent(group, inner, budget),
    )
    result = TheoremResult(condition, oracle)
    if result.agree:
        return result
    moved = sorted(autcent(group, budget).images_set ^ azz.images_set)
    witness = {
        "conditionSide": condition.to_json(),
        "automorphism": list(moved[0]) if moved else None,
    }
    return TheoremResult(condition, oracle, witness)


@dataclass(frozen=True)
class SubgroupCriterionReport:
    """One row of the inner-coincidence check, for a single central subgroup M."""

    target_members: tuple[int, ...]
    set_equal_inner: bool
    class_is_two: bool
    commutator_contained: bool
    target_cyclic: bool

    @property
    def condition(self) -> bool:
        return self.class_is_two and self.commutator_contained and self.target_cyclic

    @property
    def agree(self) -> bool:
        return self.set_equal_inner == self.condition


def verify_proposition1(group: Group, budget: int | None = None) -> list[SubgroupCriterionReport]:
    """For every M <= Z(G): Aut^M_Z(G) = Inn(G) iff class 2, [G,G] <= M, M cyclic.

    Requires a non-abelian p-group; both sides are computed independently for
    every subgroup of the center.
    """
    group.prime()  # NotPGroup unless a p-group
    if group.is_abelian():
        raise WrongClass(f"{group.name} is abelian; the criterion needs a non-abelian group")

    azz = center_fixing_autcent(group, budget)
    inner = inner_automorphisms(group)
    gamma2 = group.commutator_subgroup()
    class_two = group.nilpotency_class() == 2

    # Aut^M_Z(G), M <= Z(G), is Aut^Z_Z(G) filtered by G/M
    return [
        SubgroupCriterionReport(
            target_members=m_sub.members,
            set_equal_inner=aut_fixing_quotient(group, m_sub, azz) == inner,
            class_is_two=class_two,
            commutator_contained=gamma2.member_set <= m_sub.member_set,
            target_cyclic=m_sub.is_cyclic(),
        )
        for m_sub in group.center().all_subgroups()
    ]


@dataclass(frozen=True)
class InnerEqualityReport:
    """Autcent(G) = Inn(G) against (Z(G) = [G,G] and Z(G) cyclic)."""

    autcent_equals_inn: bool
    center_equals_commutator: bool
    center_cyclic: bool

    @property
    def condition(self) -> bool:
        return self.center_equals_commutator and self.center_cyclic

    @property
    def agree(self) -> bool:
        return self.autcent_equals_inn == self.condition


def verify_corollary1(group: Group, budget: int | None = None) -> InnerEqualityReport:
    """Check Autcent(G) = Inn(G) iff the center is cyclic and equals [G,G]."""
    group.prime()  # NotPGroup unless a p-group
    if group.is_abelian():
        raise WrongClass(f"{group.name} is abelian; the criterion needs a non-abelian group")
    inner = inner_automorphisms(group)
    center = group.center()
    gamma2 = group.commutator_subgroup()
    return InnerEqualityReport(
        autcent_equals_inn=_equals_autcent(group, inner, budget),
        center_equals_commutator=center.members == gamma2.members,
        center_cyclic=center.is_cyclic(),
    )


@dataclass(frozen=True)
class PurelyNonabelianReport:
    """Necessity check: Autcent = Aut^Z_Z forces no abelian direct factor.

    When the group does split off an abelian factor, a witness central
    automorphism moving a central element is built from an order-p element
    of Z(G) inside the Frattini subgroup (:func:`build_factor_witness`) and
    validated.
    """

    sets_equal: bool
    purely_nonabelian: bool
    witness_images: tuple[int, ...] | None = None
    witness_is_central: bool | None = None
    witness_moved_central: int | None = None

    @property
    def implication_holds(self) -> bool:
        return self.purely_nonabelian or not self.sets_equal

    @property
    def witness_valid(self) -> bool | None:
        if self.purely_nonabelian:
            return None
        return (
            self.witness_images is not None
            and bool(self.witness_is_central)
            and self.witness_moved_central is not None
        )

    @property
    def agree(self) -> bool:
        ok = self.implication_holds
        if not self.purely_nonabelian:
            ok = ok and bool(self.witness_valid)
        return ok


def build_factor_witness(group: Group) -> tuple[int, tuple[int, ...]]:
    """The witness data for a p-group with an abelian direct factor.

    With a the least central element of :func:`_factor_element`, whose
    <a> is a direct factor, z the least order-p element of Z(G) inside the
    Frattini subgroup, and c_i the first coordinate of the basis of G^ab
    (:func:`_abelian_basis`) that is non-zero mod p at pi(a) (one is, as
    pi(a) lies outside (G^ab)^p), returns z and the value table of
    f = z^lambda with lambda = c_i o pi * c_i(pi(a))^-1 mod p.  So f is a
    homomorphism into the central <z> with f(a) = z, and f(z) = 1 since
    pi(z) lies in the Frattini subgroup of G^ab, (G^ab)^p: x -> x f(x) is a
    central automorphism moving a.  No Hom row is read; the caller
    validates f.
    """
    a = _factor_element(group)
    if a is None:
        raise InternalDisagreement(f"{group.name} has no abelian direct factor")
    p = group.prime()
    orders = group.element_orders()
    frattini = group.frattini_subgroup().member_set
    z = next((u for u in group.center().members if orders[u] == p and u in frattini), None)
    if z is None:
        raise InternalDisagreement(
            f"no order-{p} element of Z(G) lies in the Frattini subgroup of {group.name}"
        )
    ab = group.abelianization()
    coords = _abelian_basis(ab.target)[1][ab.projection]  # c(pi(x)) for every x
    i = np.flatnonzero(coords[a] % p)[0]
    exponents = coords[:, i] * pow(int(coords[a, i]), -1, p) % p
    return z, tuple(group.powers()[exponents, z].tolist())


def verify_lemma3(group: Group, budget: int | None = None) -> PurelyNonabelianReport:
    """Exercise both directions of the purely-non-abelian necessity.

    Applies to non-abelian p-groups.  If the central automorphisms all fix
    the center pointwise, the group must be purely non-abelian.  Purity
    (:func:`is_purely_nonabelian`) reads no Hom row, so it shares nothing
    with the set equality, which the central pass decides.  When an abelian
    factor exists, the witness f of :func:`build_factor_witness` must be a
    homomorphism, tested on all pairs, and x -> x f(x) a bijective central
    automorphism that moves a central element (so the two sets differ).
    """
    group.prime()  # NotPGroup unless a p-group
    if group.is_abelian():
        raise WrongClass(
            f"{group.name} is abelian; the necessity statement concerns non-abelian groups"
        )
    sets_equal = _equals_autcent(group, center_fixing_autcent(group, budget), budget)
    if is_purely_nonabelian(group):
        return PurelyNonabelianReport(sets_equal=sets_equal, purely_nonabelian=True)

    _, f = build_factor_witness(group)
    mul, f = group.mul, np.asarray(f)
    homomorphism = np.array_equal(f[mul], mul[f[:, None], f[None, :]])
    aut = alpha_from_f(group, f) if homomorphism else None
    witness_images = aut.images if aut is not None else None
    is_central = aut is not None and is_central_automorphism(group, aut)
    center = group.center().members
    moved = next((u for u in center if aut.images[u] != u), None) if aut is not None else None
    return PurelyNonabelianReport(
        sets_equal=sets_equal,
        purely_nonabelian=False,
        witness_images=witness_images,
        witness_is_central=is_central,
        witness_moved_central=moved,
    )


@dataclass(frozen=True)
class HomGrowthSweep:
    """Exhaustive check of the Hom-order growth threshold over type triples."""

    prime: int
    max_exp: int
    triples_checked: int
    failures: tuple[str, ...]

    @property
    def agree(self) -> bool:
        return not self.failures


# Triples per batch, a few temporary bytes each; max_exp 10 is one batch.
_SWEEP_CELLS = 1 << 17


def verify_lemma4_sweep(p: int, max_exp: int) -> HomGrowthSweep:
    """Sweep every dominated same-length type pair (A, B) and every C.

    For each hypothesis-satisfying triple, the strictness of
    |Hom(A, C)| < |Hom(B, C)| must coincide with the exponent of C reaching
    p**(a_t + 1).  Every step reads the rows of :func:`_type_exponents`: the
    Hom orders are exponents (``p**x < p**y`` iff ``x < y``), and the
    threshold test is ``c_1 >= a_t + 1`` on C's top exponent.  Every triple
    is compared, ``_SWEEP_CELLS`` per batch; only a disagreeing one builds
    types, and the message of :func:`lemma4_compare`, in (A, B, C) order.
    Nothing is kept between calls.
    """
    exps = _type_exponents(max_exp)
    homs = _hom_exponent_table(exps)
    ranks, totals = np.count_nonzero(exps, axis=1), exps.sum(axis=1)
    # same rank, a smaller total and below in every slot; row 0 alone has rank 0
    same = (ranks[:, None] == ranks) & (totals[:, None] < totals)
    a_rows, b_rows = np.divmod(np.flatnonzero(same), len(exps))
    a_exps, b_exps = exps.take(a_rows, axis=0), exps.take(b_rows, axis=0)
    keep = np.flatnonzero((a_exps <= b_exps).all(axis=1))
    a_rows, b_rows, a_exps, b_exps = a_rows[keep], b_rows[keep], a_exps[keep], b_exps[keep]
    last = exps.shape[1] - 1 - np.argmax((a_exps != b_exps)[:, ::-1], axis=1)
    a_t = a_exps[np.arange(len(last)), last]
    top = exps[:, 0].copy()  # contiguous, for the broadcast below

    failures: list[str] = []
    step = max(1, _SWEEP_CELLS // len(exps))
    for start in range(0, len(a_rows), step):
        a, b = a_rows[start : start + step], b_rows[start : start + step]
        grows = homs.take(a, axis=0) < homs.take(b, axis=0)
        bad = (top > a_t[start : start + step, None]) != grows
        if bad.any():
            for pair, c in zip(*np.nonzero(bad)):
                rows = exps[[a[pair], b[pair], c]].tolist()
                types = [AbelianType(p, tuple(filter(None, row))) for row in rows]
                failures.append(_growth_disagreement(*types))
    return HomGrowthSweep(
        prime=p,
        max_exp=max_exp,
        triples_checked=len(a_rows) * len(exps),
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class StrictCenterReport:
    """Aut^Z_Z(G) = Inn(G) against (abelian, or class 2 with cyclic center)."""

    set_equal_inner: bool
    abelian: bool
    class_is_two: bool
    center_cyclic: bool

    @property
    def condition(self) -> bool:
        return self.abelian or (self.class_is_two and self.center_cyclic)

    @property
    def agree(self) -> bool:
        return self.set_equal_inner == self.condition


def verify_attar(group: Group, budget: int | None = None) -> StrictCenterReport:
    """Cross-check: center-fixing central automorphisms collapse to Inn(G)
    exactly for abelian groups and class-2 groups with cyclic center."""
    group.prime()  # NotPGroup unless a p-group
    azz = center_fixing_autcent(group, budget)
    inner = inner_automorphisms(group)
    return StrictCenterReport(
        set_equal_inner=azz == inner,
        abelian=group.is_abelian(),
        class_is_two=group.nilpotency_class() == 2,
        center_cyclic=group.center().is_cyclic(),
    )
