"""Invariant factors of abelian p-groups, Hom-order counting, class-2 invariants."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    HypothesisViolated,
    InternalDisagreement,
    NotAbelian,
    NotPGroup,
    PrimeMismatch,
    WrongClass,
)
from .groups import Group, is_prime


@dataclass(frozen=True, slots=True)
class AbelianType:
    """Invariant-factor type of a finite abelian p-group.

    ``exps`` is the nonincreasing list of exponents [a1 >= a2 >= ... > 0];
    the group it encodes is the direct product of cyclic groups of order
    ``p**a_i``.  The empty list encodes the trivial group.
    """

    p: int
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2:
            raise NotPGroup(f"prime must be at least 2, got {self.p}")
        if any(e <= 0 for e in self.exps):
            raise HypothesisViolated(f"exponents must be positive, got {self.exps}")
        if any(self.exps[i] < self.exps[i + 1] for i in range(len(self.exps) - 1)):
            raise HypothesisViolated(f"exponents must be nonincreasing, got {self.exps}")

    @property
    def order(self) -> int:
        return self.p ** sum(self.exps)

    @property
    def rank(self) -> int:
        return len(self.exps)

    def exponent(self) -> int:
        return self.p ** self.exps[0] if self.exps else 1

    def is_trivial(self) -> bool:
        return not self.exps

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        return " x ".join(f"C{self.p ** e}" for e in self.exps)


def invariants(group: Group, p: int | None = None) -> AbelianType:
    """Invariant-factor type of an abelian p-group, from its order census.

    The count of elements x with ``x**(p**i) = 1`` equals ``p**sum_j(min(a_j, i))``,
    so the exponent vector is the conjugate of the successive log differences.
    Cached on the group per resolved prime; a call that raises caches nothing.
    """
    if not group.is_abelian():
        raise NotAbelian(f"{group.name} is not abelian")
    if group.n > 1:
        detected = group.prime()
        if p is None:
            p = detected
        elif p != detected:
            raise NotPGroup(f"{group.name} has order {group.n}, not a power of {p}")
    elif p is None:
        p = 2  # the trivial group carries no prime; any placeholder works
    return group._cached(("invariants", p), lambda: _census_type(group, p))


def _census_type(group: Group, p: int) -> AbelianType:
    orders = group.element_orders()
    log_orders = []
    for o in orders:
        e = 0
        while o > 1:
            if o % p:
                raise NotPGroup(f"element of order {o} in a claimed {p}-group")
            o //= p
            e += 1
        log_orders.append(e)

    max_e = max(log_orders, default=0)
    diffs = []
    prev = 0
    for i in range(1, max_e + 1):
        count = sum(1 for e in log_orders if e <= i)
        log_count, rest = 0, count
        while rest > 1 and rest % p == 0:
            rest //= p
            log_count += 1
        if rest != 1:
            raise InternalDisagreement(
                f"order census of {group.name} is not a {p}-power: {count}"
            )
        diffs.append(log_count - prev)
        prev = log_count
    exps = tuple(
        sum(1 for d in diffs if d >= j) for j in range(1, (diffs[0] + 1) if diffs else 1)
    )
    result = AbelianType(p, exps)
    if result.order != group.n:
        raise InternalDisagreement(
            f"type {result} has order {result.order}, group has {group.n}"
        )
    return result


def hom_order(a: AbelianType, b: AbelianType) -> int:
    """Number of homomorphisms between abelian p-groups of the given types.

    Equals the product over all factor pairs of ``p**min(a_i, b_j)``; computed
    in exact integer arithmetic.
    """
    if a.is_trivial() or b.is_trivial():
        return 1
    if a.p != b.p:
        raise PrimeMismatch(f"types over different primes: {a.p} vs {b.p}")
    return math.prod(a.p ** min(x, y) for x in a.exps for y in b.exps)


def _sylow_type(group: Group, p: int) -> AbelianType:
    """Type of the Sylow p-subgroup of a finite abelian group: the elements
    whose order divides the p-part of |G|.  A p-group is its own, so no
    subgroup is built for it."""
    if group.p_group_prime() == p:
        return invariants(group, p)
    part = math.gcd(group.n, p ** group.n.bit_length())
    orders = group.element_orders()
    sylow = group.subgroup(x for x in range(group.n) if part % orders[x] == 0)
    return invariants(sylow.as_group(), p)


def _hom_count(a: Group, m: Group) -> int:
    """|Hom(A, M)| for finite abelian groups A and M, by type formula.

    A homomorphism maps each Sylow p-subgroup of A into that of M, and both
    groups are the direct products of their Sylow subgroups, so the count is
    the product over the primes p dividing both orders of :func:`hom_order`
    on the two Sylow p-subgroups' types.
    """
    common = math.gcd(a.n, m.n)
    primes = [p for p in range(2, common + 1) if common % p == 0 and is_prime(p)]
    return math.prod(hom_order(_sylow_type(a, p), _sylow_type(m, p)) for p in primes)


def _type_exponents(max_exp: int) -> np.ndarray:
    """Every type of total exponent at most ``max_exp``, one uint8 row each.

    Rows are nonincreasing, zero-padded to ``max(max_exp, 1)`` columns and
    ordered by total, rank, and the exponents read from the smallest.  The
    partitions of n into k parts in that order are, for each smallest part s,
    those of n - s into k - 1 parts of at least s, with s appended.
    """
    width = max(max_exp, 1)
    parts: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    flat = bytearray(width)
    for n in range(1, max_exp + 1):
        for k in range(1, n + 1):
            parts[n, k] = [(n,)] if k == 1 else [
                (*r, s) for s in range(1, n // k + 1) for r in parts[n - s, k - 1] if r[-1] >= s
            ]
            pad = (0,) * (width - k)
            for row in parts[n, k]:
                flat += bytes(row + pad)
    return np.frombuffer(flat, dtype=np.uint8).reshape(-1, width)


def _hom_exponent_table(exps: np.ndarray) -> np.ndarray:
    """``log_p |Hom(x, c)|`` for every pair of rows x, c of a type exponent matrix.

    That is ``sum min(x_k, c_l)``, or ``sum_k x'_k c'_k`` over the conjugate
    partitions (``x'_k = #{i : x_i >= k}``): one integer matmul.  No entry or
    partial sum exceeds the square of the largest row total, and the dtype is
    the narrowest unsigned one that holds it.
    """
    largest = int(exps.sum(axis=1).max(initial=0))
    levels = np.arange(1, int(exps.max(initial=0)) + 1, dtype=exps.dtype)
    conj = (exps[:, :, None] >= levels).sum(axis=1, dtype=np.min_scalar_type(largest**2))
    return conj @ conj.T


@dataclass(frozen=True, slots=True)
class ClassTwoInvariants:
    """The invariant bundle of a p-group of nilpotency class exactly 2.

    ``z_type``/``ab_type`` are the types of G/Z(G) and of the abelianization;
    ``c`` is the common exponent-exponent of G/Z(G) and the commutator
    subgroup; ``k`` counts the leading z_type entries equal to ``c``.  The
    residuals are both types past position ``k``.
    """

    z_type: AbelianType
    ab_type: AbelianType
    c: int
    k: int
    z_residual: AbelianType
    ab_residual: AbelianType
    exp_center: int
    exp_commutator: int

    @property
    def r(self) -> int:
        return self.z_type.rank

    @property
    def s(self) -> int:
        return self.ab_type.rank


def class_two_invariants(group: Group) -> ClassTwoInvariants:
    """Compute the class-2 invariant bundle; raises unless class is exactly 2."""
    p = group.prime()
    if group.nilpotency_class() != 2:
        raise WrongClass(
            f"{group.name} has nilpotency class {group.nilpotency_class()}, need 2"
        )

    center = group.center()
    gamma2 = group.commutator_subgroup()
    z_type = invariants(group.center_quotient().target, p)
    ab_type = invariants(group.abelianization().target, p)

    exp_zq = z_type.exponent()
    exp_gamma2 = gamma2.exponent()
    if exp_zq != exp_gamma2:
        raise InternalDisagreement(
            f"exponents of G/Z and the commutator subgroup differ for {group.name}: "
            f"{exp_zq} vs {exp_gamma2}"
        )
    c = z_type.exps[0]
    k = sum(1 for e in z_type.exps if e == c)
    if k < 2:
        raise InternalDisagreement(f"leading-invariant multiplicity {k} < 2 for {group.name}")

    r, s = z_type.rank, ab_type.rank
    if r > s:
        raise InternalDisagreement(f"rank of G/Z exceeds rank of G^ab for {group.name}")
    for j in range(r):
        if ab_type.exps[j] < z_type.exps[j]:
            raise InternalDisagreement(
                f"componentwise domination fails at {j} for {group.name}"
            )

    return ClassTwoInvariants(
        z_type=z_type,
        ab_type=ab_type,
        c=c,
        k=k,
        z_residual=AbelianType(p, z_type.exps[k:]),
        ab_residual=AbelianType(p, ab_type.exps[k:]),
        exp_center=center.exponent(),
        exp_commutator=exp_gamma2,
    )


@dataclass(frozen=True, slots=True)
class HomGrowth:
    """Outcome of comparing Hom(A, C) with Hom(B, C) for dominated pairs."""

    strict: bool
    t: int
    threshold: int
    hom_a: int
    hom_b: int


def _growth_threshold(a: AbelianType, b: AbelianType) -> tuple[int, int]:
    """``(t, p**(a_t + 1))`` for a dominated same-length pair, ``t`` 1-based.

    Raises :class:`HypothesisViolated` unless A and B are nonempty, of equal
    length over the same prime, with ``b_j >= a_j`` everywhere and strictly
    somewhere.
    """
    if a.p != b.p:
        raise HypothesisViolated(f"A and B use different primes: {a.p} vs {b.p}")
    if a.rank != b.rank or a.rank == 0:
        raise HypothesisViolated(
            f"A and B must be nonempty of equal length, got {a.rank} and {b.rank}"
        )
    if any(be < ae for ae, be in zip(a.exps, b.exps)):
        raise HypothesisViolated("componentwise domination b_j >= a_j fails")
    if a.exps == b.exps:
        raise HypothesisViolated("strict inequality b_j > a_j must hold somewhere")
    t = max(j for j in range(a.rank) if a.exps[j] != b.exps[j]) + 1
    return t, a.p ** (a.exps[t - 1] + 1)


def _growth_disagreement(a: AbelianType, b: AbelianType, c: AbelianType) -> str:
    return f"threshold test and Hom comparison disagree for A={a}, B={b}, C={c}"


def lemma4_compare(a: AbelianType, b: AbelianType, c: AbelianType) -> HomGrowth:
    """Decide whether |Hom(A, C)| < |Hom(B, C)| via the exponent threshold.

    Requires A and B of the same length over the same prime with ``b_j >= a_j``
    everywhere and strictly somewhere.  With ``t`` the last index where they
    differ, strict growth happens exactly when the exponent of C reaches
    ``p**(a_t + 1)``; the Hom orders are recomputed and must agree.
    """
    # C's prime is checked after A's and B's agree, and before their shapes.
    if not c.is_trivial() and c.p != a.p == b.p:
        raise HypothesisViolated(f"C uses prime {c.p}, expected {a.p}")
    t, threshold = _growth_threshold(a, b)
    strict = c.exponent() >= threshold

    hom_a = hom_order(a, c)
    hom_b = hom_order(b, c)
    if strict != (hom_a < hom_b):
        raise InternalDisagreement(_growth_disagreement(a, b, c))
    return HomGrowth(strict=strict, t=t, threshold=threshold, hom_a=hom_a, hom_b=hom_b)
