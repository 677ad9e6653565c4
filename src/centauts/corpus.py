"""Built-in group catalog, group-file ingestion, scanning, caching, reports."""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .automorphisms import DEFAULT_SEARCH_BUDGET, verify_lemma0, verify_lemma0a
from .errors import (
    CentautsError,
    ConfigError,
    NotAGroup,
    NotNilpotent,
    NotNormal,
    NotPGroup,
    NotPurelyNonabelian,
    ParseError,
    WrongClass,
)
from .groups import (
    DEFAULT_ELEMENT_CAP,
    Group,
    _coset_table,
    _order_prime,
    _permutation_table,
    _product_table,
    from_cayley_table,
    is_prime,
)
from .theory import (
    ConditionSide,
    OracleSide,
    _typed,
    verify_attar,
    verify_corollary1,
    verify_lemma3,
    verify_lemma4_sweep,
    verify_proposition1,
    verify_theorem,
)

_CSV_COLUMNS = (
    "groupId",
    "check",
    "order",
    "prime",
    "class",
    "rEqS",
    "residualIso",
    "expEq",
    "all",
    "autcentOrder",
    "autZZOrder",
    "innOrder",
    "verdict",
)


# -- catalog constructions -------------------------------------------------
#
# Every family and product is a table step returning a raw table (a family's
# product is a formula on mixed-radix coordinates); catalog entries compose
# those tables and hand only the final one to the Group constructor, so each
# entry's table is validated exactly once.


def _radix_table(radix: tuple[int, ...], mul: Callable) -> np.ndarray:
    """The table on ``prod(radix)`` elements whose element k has the
    mixed-radix coordinates ``np.unravel_index(k, radix)`` and whose product
    is ``mul``, evaluated once over the whole table.

    ``mul(a, b)`` is called once, with ``a`` and ``b`` tuples of integer
    coordinate arrays: ``a`` runs down the rows (shape ``(n, 1)``) and ``b``
    along the columns (shape ``(1, n)``).  It returns the product's
    coordinates reduced into range, integer arrays that broadcast together
    to ``(n, n)``; a coordinate outside its range raises ``ValueError``.
    """
    coords = np.unravel_index(np.arange(math.prod(radix)), radix)
    rows = tuple(c[:, None] for c in coords)
    cols = tuple(c[None, :] for c in coords)
    return np.ravel_multi_index(mul(rows, cols), radix)


def _cyclic_table(k: int) -> np.ndarray:
    return _radix_table((k,), lambda a, b: ((a[0] + b[0]) % k,))


def cyclic_group(k: int, name: str | None = None) -> Group:
    """C_k with element i representing the i-th power of the generator."""
    return from_cayley_table(_cyclic_table(k), name=name or f"C{k}")


def _abelian_table(factor_orders: Sequence[int]) -> np.ndarray:
    return _product_table([_cyclic_table(k) for k in factor_orders])


def abelian_group(factor_orders: Sequence[int], name: str | None = None) -> Group:
    """Direct product of cyclic groups of the given orders."""
    if not factor_orders:
        return cyclic_group(1, name or "C1")
    name = name or "x".join(f"C{k}" for k in factor_orders)
    return from_cayley_table(_abelian_table(factor_orders), name=name)


def _dihedral_table(m: int) -> np.ndarray:
    def mul(a, b):
        (j, i), (l, k) = a, b
        # a^i x^j * a^k x^l, with x a^k = a^-k x
        return (j + l) % 2, np.where(j == 0, i + k, i - k) % m

    return _radix_table((2, m), mul)


def dihedral_group(m: int, name: str | None = None) -> Group:
    """Dihedral group of order 2m (symmetries of the m-gon)."""
    return from_cayley_table(_dihedral_table(m), name=name or f"D{2 * m}")


def _dicyclic_table(m: int) -> np.ndarray:
    def mul(a, b):
        (j, i), (l, k) = a, b
        # a^i x^j * a^k x^l, with x a^k = a^-k x and x^2 = a^m
        return (j + l) % 2, np.where(j == 0, i + k, i - k + m * l) % (2 * m)

    return _radix_table((2, 2 * m), mul)


def dicyclic_group(m: int, name: str | None = None) -> Group:
    """Dicyclic group of order 4m; m = 2 gives the quaternion group."""
    return from_cayley_table(_dicyclic_table(m), name=name or f"Dic{m}")


def _metacyclic_table(n: int, m: int, r: int) -> np.ndarray:
    if math.gcd(r, n) != 1 or pow(r, m, n) != 1:
        raise ConfigError(f"invalid metacyclic parameters n={n}, m={m}, r={r}")
    powers = np.array([pow(r, j, n) for j in range(m)])

    def mul(a, b):
        # b^j a^i * b^jp a^ip, with a^i b^jp = b^jp a^(i r^jp)
        (j, i), (jp, ip) = a, b
        return (j + jp) % m, (i * powers[jp] + ip) % n

    return _radix_table((m, n), mul)


def metacyclic_group(n: int, m: int, r: int, name: str | None = None) -> Group:
    """The split extension <a, b | a^n = b^m = 1, b^-1 a b = a^r>."""
    return from_cayley_table(_metacyclic_table(n, m, r), name=name or f"C{n}sdC{m}r{r}")


def _heisenberg_table(p: int) -> np.ndarray:
    def mul(a, b):
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p, (a[2] + b[2] + a[0] * b[1]) % p)

    return _radix_table((p, p, p), mul)


def heisenberg_group(p: int, name: str | None = None) -> Group:
    """Upper unitriangular 3x3 matrices over the field with p elements."""
    return from_cayley_table(_heisenberg_table(p), name=name or f"Heis{p}")


def _identity(table: np.ndarray) -> int:
    return int(np.flatnonzero((table == np.arange(len(table))).all(axis=1))[0])


def _central_product_table(g: np.ndarray, h: np.ndarray, zg: int, zh: int) -> np.ndarray:
    """The table of G x H over its central subgroup <(zg, zh^-1)>, on least-index
    coset representatives.

    :class:`NotNormal` unless zg is central in G and zh in H.
    """
    for name, table, z in (("zg", g, zg), ("zh", h, zh)):
        if not 0 <= z < len(table):
            raise NotAGroup(f"{name}={z} is outside [0, {len(table)})")
        if not np.array_equal(table[z], table[:, z]):
            raise NotNormal(f"{name}={z} is not central, so it spans no central product")
    prod = _product_table([g, h], 4 * DEFAULT_ELEMENT_CAP)
    e_h = _identity(h)
    e = _identity(g) * len(h) + e_h
    diag = zg * len(h) + int(np.flatnonzero(h[zh] == e_h)[0])
    kernel = [e]
    x = diag
    while x != e:
        kernel.append(x)
        x = int(prod[x, diag])
    return _coset_table(prod, kernel)[2]


def central_product(g: Group, h: Group, zg: int, zh: int, name: str) -> Group:
    """Quotient of G x H identifying the central elements zg and zh.

    :class:`NotNormal` unless zg is central in G and zh in H.
    """
    return from_cayley_table(_central_product_table(g.mul, h.mul, zg, zh), name=name)


def _central_involution(table: np.ndarray) -> int:
    """The least-index central element of order 2."""
    e = _identity(table)
    idx = np.arange(len(table))
    hits = (table == table.T).all(axis=1) & (table[idx, idx] == e) & (idx != e)
    return int(np.flatnonzero(hits)[0])


def _cp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The central product of two 2-group tables over their first central involutions."""
    return _central_product_table(a, b, _central_involution(a), _central_involution(b))


class _CatalogEntry(NamedTuple):
    """A catalog entry before it is built: its order, its prime (None unless
    the order is a prime power) and the table step that builds it."""

    order: int
    prime: int | None
    table: Callable[[], np.ndarray]


def _catalog_entries() -> dict[str, _CatalogEntry]:
    """The built-in corpus as unbuilt entries, in deterministic order.

    The corpus mixes the class-2 study subjects (dihedral/quaternion groups,
    modular and extraspecial-style groups, Heisenberg groups, products and
    central products) with abelian, higher-class, and non-prime-power
    negative controls.  Each entry declares its order, so a scan filters on
    order and prime before any table is made; the tests check every
    declaration against the built group.

    A step that several entries read runs at most once while the returned
    entries live: it is wrapped in ``functools.cache``, which keeps its
    result.  What a wrapper wraps never references the wrapper, so dropping
    the entries frees every result without the cycle collector.  A step only
    one entry reads is not kept.
    """

    def step(table: Callable[..., np.ndarray], *args: int) -> Callable[[], np.ndarray]:
        return cache(partial(table, *args))

    def prod(*factors: Callable[[], np.ndarray]) -> Callable[[], np.ndarray]:
        return lambda: _product_table([f() for f in factors])

    def cp(a: Callable[[], np.ndarray], b: Callable[[], np.ndarray]) -> Callable[[], np.ndarray]:
        return lambda: _cp(a(), b())

    c2, c3, c4, c8, c9 = (step(_cyclic_table, k) for k in (2, 3, 4, 8, 9))
    d8, q8 = step(_dihedral_table, 4), step(_dicyclic_table, 2)
    m16, c4sdc4 = step(_metacyclic_table, 8, 2, 5), step(_metacyclic_table, 4, 4, 3)
    heis3, m27 = step(_heisenberg_table, 3), step(_metacyclic_table, 9, 3, 4)
    d8cpd8 = cache(cp(d8, d8))
    tables: dict[str, tuple[int, Callable[[], np.ndarray]]] = {
        # abelian p-groups (controls for the non-abelian criteria)
        "C2": (2, c2),
        "C4": (4, c4),
        "C8": (8, c8),
        "C16": (16, partial(_cyclic_table, 16)),
        "C2xC2": (4, prod(c2, c2)),
        "C2xC4": (8, prod(c2, c4)),
        "C4xC4": (16, prod(c4, c4)),
        "C2xC2xC2": (8, prod(c2, c2, c2)),
        "C3": (3, c3),
        "C9": (9, c9),
        "C27": (27, partial(_cyclic_table, 27)),
        "C3xC3": (9, prod(c3, c3)),
        "C3xC9": (27, prod(c3, c9)),
        "C5": (5, partial(_cyclic_table, 5)),
        # class-2 2-groups
        "D8": (8, d8),
        "Q8": (8, q8),
        "M16": (16, m16),
        "M32": (32, partial(_metacyclic_table, 16, 2, 9)),
        "C4sdC4": (16, c4sdc4),
        "D8cpC4": (16, cp(d8, c4)),
        "D8xC2": (16, prod(d8, c2)),
        "Q8xC2": (16, prod(q8, c2)),
        "D8xC4": (32, prod(d8, c4)),
        "Q8xC4": (32, prod(q8, c4)),
        "M16xC2": (32, prod(m16, c2)),
        "C4sdC4xC2": (32, prod(c4sdc4, c2)),
        "D8xC2xC2": (32, prod(d8, c2, c2)),
        "Q8xC2xC2": (32, prod(q8, c2, c2)),
        "D8cpD8": (32, d8cpd8),
        "D8cpQ8": (32, cp(d8, q8)),
        "D8xC8": (64, prod(d8, c8)),
        "M16xC4": (64, prod(m16, c4)),
        "D8xQ8": (64, prod(d8, q8)),
        "D8xD8": (64, prod(d8, d8)),
        "Q8xQ8": (64, prod(q8, q8)),
        "D8cpD8xC2": (64, prod(d8cpd8, c2)),
        # class-2 odd-order groups
        "Heis3": (27, heis3),
        "M27": (27, m27),
        "Heis3xC3": (81, prod(heis3, c3)),
        "M27xC3": (81, prod(m27, c3)),
        "C9sdC9": (81, partial(_metacyclic_table, 9, 9, 4)),
        "Heis3cpC9": (81, lambda: _central_product_table(heis3(), c9(), 2, 3)),
        "Heis5": (125, partial(_heisenberg_table, 5)),
        # higher-class and non-prime-power controls
        "D16": (16, partial(_dihedral_table, 8)),
        "SD16": (16, partial(_metacyclic_table, 8, 2, 3)),
        "Q16": (16, partial(_dicyclic_table, 4)),
        "D32": (32, partial(_dihedral_table, 16)),
        "S3": (6, partial(_dihedral_table, 3)),
        "C6": (6, partial(_cyclic_table, 6)),
    }

    return {name: _CatalogEntry(n, _order_prime(n), make) for name, (n, make) in tables.items()}


def catalog() -> dict[str, Callable[[], Group]]:
    """Named constructors for the built-in corpus, in deterministic order.

    Each entry composes raw tables and runs the Group constructor once, on
    its final table.
    """

    def entry(name: str, make: Callable[[], np.ndarray]) -> Callable[[], Group]:
        return lambda: from_cayley_table(make(), name=name)

    return {name: entry(name, e.table) for name, e in _catalog_entries().items()}


def catalog_group(name: str) -> Group:
    entries = catalog()
    if name not in entries:
        raise ParseError(f"unknown catalog group {name!r}")
    return entries[name]()


# -- group files -----------------------------------------------------------


def serialize_group(group: Group, name: str | None = None) -> dict:
    """Canonical group-file document (cayley format) for the given group."""
    return {
        "name": name or group.name,
        "format": "cayley",
        "n": group.n,
        "table": group.mul.tolist(),
    }


def group_file_text(group: Group, name: str | None = None) -> str:
    return json.dumps(serialize_group(group, name), sort_keys=True, indent=2) + "\n"


def _int_rows(doc: dict, key: str) -> list[list[int]]:
    """Field ``key`` of a group document, which must be a list of lists of integers."""
    rows = doc[key]
    # set(map(type, row)) tests a row's cells at C speed; type(True) is bool, not int
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and set(map(type, row)) <= {int} for row in rows
    ):
        raise ParseError(f"field {key!r} must be a list of lists of integers")
    return rows


def _int_field(doc: dict, key: str) -> int:
    """Field ``key`` of a group document, which must be an integer (a bool is not)."""
    try:
        return _typed(doc[key], int, f"field {key!r}")
    except TypeError as exc:
        raise ParseError(str(exc)) from None


def _final_name(name: str | None, n: int, stem: str | None) -> str | None:
    """``name``, or ``stem`` where the name is missing or the default ``G<n>``."""
    if stem is not None and name in (None, f"G{n}"):
        return stem
    return name


def _parse_group_document(doc, stem: str | None = None) -> Group:
    """The group of a document; ``stem`` names it where the document leaves
    it unnamed or at the default name ``G<n>``.  Each format builds its
    whole table first and validates it once; a product validates its
    factors and then their folded table."""
    if not isinstance(doc, dict):
        raise ParseError(f"group document must be an object, got {type(doc).__name__}")
    fmt = doc.get("format")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("field 'name' must be a string")
    if fmt == "cayley":
        if "table" not in doc:
            raise ParseError("cayley format requires field 'table'")
        table = _int_rows(doc, "table")
        if any(len(row) != len(table) for row in table):
            raise ParseError("field 'table' must be square")
        if "n" in doc and _int_field(doc, "n") != len(table):
            raise ParseError(f"field 'n' ({doc['n']}) does not match the table size")
    elif fmt == "perm":
        if "degree" not in doc or "generators" not in doc:
            raise ParseError("perm format requires fields 'degree' and 'generators'")
        table = _permutation_table(_int_field(doc, "degree"), _int_rows(doc, "generators"))
    elif fmt == "product":
        factors = doc.get("factors")
        if not isinstance(factors, list) or not factors:
            raise ParseError("product format requires a non-empty list field 'factors'")
        parts = []
        for k, factor in enumerate(factors):
            if isinstance(factor, str):
                parts.append(catalog_group(factor))
            elif isinstance(factor, dict):
                parts.append(_parse_group_document(factor))
            else:
                raise ParseError(f"factor {k} must be a catalog name or a nested document")
        if name is None:
            name = "x".join(part.name for part in parts)
        name = _final_name(name, math.prod(part.n for part in parts), stem)
        if len(parts) == 1 and name == parts[0].name:
            return parts[0]
        return from_cayley_table(_product_table([part.mul for part in parts]), name=name)
    else:
        raise ParseError(f"unknown group format {fmt!r} (expected cayley, perm, or product)")
    return from_cayley_table(table, name=_final_name(name, len(table), stem))


def _parse(text: str, stem: str | None = None) -> Group:
    """The group of a JSON document; nesting too deep to decode or walk is a ParseError."""
    try:
        return _parse_group_document(json.loads(text), stem)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("group document nested too deeply") from None


def parse_group_text(text: str) -> Group:
    """Parse a group-file document from a JSON string."""
    return _parse(text)


def parse_group_file(path: str | Path) -> Group:
    """Parse a group-file document from disk; a group the document leaves
    unnamed, or named ``G<n>``, is named after the file stem."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read group file {path}: {exc}") from exc
    return _parse(text, Path(path).stem)


# -- check registry ---------------------------------------------------------


@dataclass
class GroupReport:
    """One scan row: a group's metadata, theorem sides and per-check statuses."""

    group_id: str
    order: int
    prime: int | None
    nilpotency_class: int | None
    condition: ConditionSide | None = None
    oracle: OracleSide | None = None
    lemma_checks: dict[str, str] = field(default_factory=dict)
    verdict: str = "agree"
    error: str | None = None
    witness: dict | None = None


def _status(agree: bool) -> str:
    return "pass" if agree else "fail"


def _run_theorem(group: Group, budget: int | None, report: GroupReport) -> str:
    result = verify_theorem(group, budget)
    report.condition = result.condition
    report.oracle = result.oracle
    report.witness = result.witness
    return _status(result.agree)


def _run_lemma0(group: Group, budget: int | None, report: GroupReport) -> str:
    status = verify_lemma0(group, group.center(), budget).status
    return "not-applicable" if status == "hypothesis-fails" else status


# Check id -> runner returning the check's status; a runner may also fill in
# the group report.  ``lemma4`` is the corpus-wide Hom-growth sweep, which
# scan_corpus runs once per prime instead of once per group.
CHECKS: dict[str, Callable[[Group, int | None, GroupReport], str] | None] = {
    "theorem": _run_theorem,
    "prop1": lambda g, budget, _: _status(all(r.agree for r in verify_proposition1(g, budget))),
    "cor1": lambda g, budget, _: _status(verify_corollary1(g, budget).agree),
    "lemma0": _run_lemma0,
    "lemma0a": lambda g, budget, _: verify_lemma0a(g, budget).status,
    "lemma3": lambda g, budget, _: _status(verify_lemma3(g, budget).agree),
    "lemma4": None,
    "attar": lambda g, budget, _: _status(verify_attar(g, budget).agree),
}
CHECK_NAMES = tuple(CHECKS)
PER_GROUP_CHECKS = tuple(c for c, run in CHECKS.items() if run is not None)


# -- run configuration and scanning ----------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Parameters for a corpus scan."""

    max_order: int = 64
    primes: tuple[int, ...] = (2, 3, 5)
    checks: tuple[str, ...] = CHECK_NAMES
    cache_dir: str | None = None
    budget: int = DEFAULT_SEARCH_BUDGET

    def __post_init__(self) -> None:
        if not self.checks:
            raise ConfigError("the check set must not be empty")
        bad = [c for c in self.checks if c not in CHECK_NAMES]
        if bad:
            raise ConfigError(f"unknown checks: {bad}; known: {list(CHECK_NAMES)}")
        if self.max_order < 1 or self.max_order > DEFAULT_ELEMENT_CAP:
            raise ConfigError(
                f"max_order must be within [1, {DEFAULT_ELEMENT_CAP}], got {self.max_order}"
            )
        if not self.primes:
            raise ConfigError("the prime list must not be empty")
        not_prime = [p for p in self.primes if not is_prime(p)]
        if not_prime:
            raise ConfigError(f"primes must be prime, got {not_prime}")
        if len(set(self.primes)) != len(self.primes):
            raise ConfigError(f"primes must be distinct, got {list(self.primes)}")
        if self.budget < 0:
            raise ConfigError(f"budget must be non-negative, got {self.budget}")


def analyze_group(group: Group, checks: Sequence[str], budget: int | None = None) -> GroupReport:
    """Run the enabled per-group checks and aggregate them into one report.

    Inapplicable hypotheses (wrong class, non-p-groups, abelian groups for
    the non-abelian statements) are recorded as not-applicable; any other
    library error in a check (a budget or size blowup, a failed internal
    cross-check) is captured as that check's error verdict instead of
    propagating.
    """
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown check {unknown[0]!r}")
    try:
        klass = group.nilpotency_class()
    except NotNilpotent:
        klass = None
    report = GroupReport(
        group_id=group.name,
        order=group.n,
        prime=group.p_group_prime(),
        nilpotency_class=klass,
    )
    not_applicable = (WrongClass, NotPGroup, NotPurelyNonabelian, NotNilpotent)
    errors: list[str] = []

    for check in checks:
        run = CHECKS[check]
        if run is None:
            continue
        try:
            status = run(group, budget, report)
        except not_applicable:
            status = "not-applicable"
        except CentautsError as exc:
            status = "error"
            errors.append(f"{check}: {exc}")
        report.lemma_checks[check] = status

    if any(v == "fail" for v in report.lemma_checks.values()):
        report.verdict = "COUNTEREXAMPLE"
    elif errors:
        report.verdict = "error"
        report.error = "; ".join(errors)
    else:
        report.verdict = "agree"
    return report


def _sweep_report(prime: int, max_exp: int) -> GroupReport:
    sweep = verify_lemma4_sweep(prime, max_exp)
    return GroupReport(
        group_id=f"lemma4-sweep-p{prime}",
        order=prime**max_exp,
        prime=prime,
        nilpotency_class=None,
        lemma_checks={"lemma4": "pass" if sweep.agree else "fail"},
        verdict="agree" if sweep.agree else "COUNTEREXAMPLE",
        witness=None if sweep.agree else {"failures": list(sweep.failures)},
    )


def report_to_json_dict(report: GroupReport) -> dict:
    doc = {
        "groupId": report.group_id,
        "order": report.order,
        "prime": report.prime,
        "class": report.nilpotency_class,
        "conditionSide": report.condition.to_json() if report.condition else None,
        "oracleSide": report.oracle.to_json() if report.oracle else None,
        "lemmaChecks": dict(sorted(report.lemma_checks.items())),
        "verdict": report.verdict,
    }
    if report.error is not None:
        doc["error"] = report.error
    if report.witness is not None:
        doc["witness"] = report.witness
    return doc


_STATUSES = ("pass", "fail", "not-applicable", "error")
_VERDICTS = ("agree", "COUNTEREXAMPLE", "error")


def _report_from_json_dict(doc: dict) -> GroupReport:
    """Decode a report document; a field of the wrong type or value raises
    TypeError or ValueError."""
    cond = _typed(doc.get("conditionSide"), dict, "conditionSide", nullable=True)
    orc = _typed(doc.get("oracleSide"), dict, "oracleSide", nullable=True)
    checks = dict(_typed(doc.get("lemmaChecks", {}), dict, "lemmaChecks"))
    bad = {k: v for k, v in checks.items() if k not in CHECK_NAMES or v not in _STATUSES}
    if bad:
        raise ValueError(f"unknown checks or statuses in lemmaChecks: {bad}")
    if doc["verdict"] not in _VERDICTS:
        raise ValueError(f"unknown verdict {doc['verdict']!r}")
    return GroupReport(
        group_id=_typed(doc["groupId"], str, "groupId"),
        order=_typed(doc["order"], int, "order"),
        prime=_typed(doc["prime"], int, "prime", nullable=True),
        nilpotency_class=_typed(doc["class"], int, "class", nullable=True),
        condition=ConditionSide.from_json(cond) if cond is not None else None,
        oracle=OracleSide.from_json(orc) if orc is not None else None,
        lemma_checks=checks,
        verdict=doc["verdict"],
        error=_typed(doc.get("error"), str, "error", nullable=True),
        witness=_typed(doc.get("witness"), dict, "witness", nullable=True),
    )


def _cache_key(name: str, table: np.ndarray, checks: Sequence[str], budget: int) -> str:
    """sha256 of a JSON header (version, name, order, check set, budget) followed
    by the table as little-endian uint16 bytes.  The header's ``n`` fixes the
    table's length, and a scan keeps n within the element cap, so uint16
    holds every entry of a valid table and the bytes decode one way only.

    The table need not be validated: a report is cached only under the key
    of a table that passed validation, and the key covers every table byte,
    so an unvalidated table that hits the cache is byte for byte one that
    was validated.
    """
    header = json.dumps(
        {
            "version": __version__,
            "name": name,
            "n": len(table),
            "checks": sorted(set(checks)),
            "budget": budget,
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(header.encode("utf-8"))
    digest.update(table.astype("<u2").tobytes())
    return digest.hexdigest()


def _cache_read(cache_dir: str, key: str) -> GroupReport | None:
    """The cached report under ``key``; None on a miss or an unreadable entry."""
    try:
        with open(os.path.join(cache_dir, f"{key}.json"), encoding="utf-8") as handle:
            return _report_from_json_dict(json.load(handle))
    except (OSError, ValueError, LookupError, TypeError, AttributeError, RecursionError):
        # OSError covers a missing entry; ValueError, invalid JSON and
        # non-UTF-8 bytes; RecursionError, JSON nested too deeply to decode;
        # the rest, a document of the wrong shape.
        return None


def _unusable_cache(cache_dir: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cache directory {cache_dir!r} cannot be used: {exc}")


def _cache_write(cache_dir: str, key: str, report: GroupReport) -> None:
    """Write ``report`` under ``key`` by an atomic rename; an OSError becomes a
    ConfigError naming the directory.  Entries are compact JSON, which the C
    encoder writes; a reader takes any layout."""
    payload = json.dumps(report_to_json_dict(report), sort_keys=True)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, os.path.join(cache_dir, f"{key}.json"))
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
    except OSError as exc:
        raise _unusable_cache(cache_dir, exc) from exc


def scan_corpus(cfg: RunConfig) -> list[GroupReport]:
    """Run the enabled checks over the catalog within caps.

    Reports come back in catalog order followed by the Hom-growth sweeps;
    per-group failures never abort the scan.  A cache entry is a hit only
    when its report names the scanned entry, its order and the requested
    per-group checks; any other entry is recomputed and rewritten.  A cache
    directory that cannot be created raises :class:`ConfigError` before any
    group is analyzed, and one that cannot be written raises it at the first
    write.
    """
    cache_dir = cfg.cache_dir or None
    if cache_dir is not None:
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            raise _unusable_cache(cache_dir, exc) from exc
    reports: list[GroupReport] = []
    per_group = {c for c in cfg.checks if CHECKS[c] is not None}
    for name, entry in _catalog_entries().items():
        if entry.order > cfg.max_order:
            continue
        if entry.prime is not None and entry.prime not in cfg.primes:
            continue
        # a cache hit reads the report without building (and validating) the group
        table = entry.table()
        key = None if cache_dir is None else _cache_key(name, table, cfg.checks, cfg.budget)
        report = None if key is None else _cache_read(cache_dir, key)
        hit = (name, entry.order, per_group)  # anything else is another group's report
        if report is not None and (report.group_id, report.order, set(report.lemma_checks)) != hit:
            report = None
        if report is None:
            group = from_cayley_table(table, name=name)
            report = analyze_group(group, cfg.checks, cfg.budget)
            if key is not None:
                _cache_write(cache_dir, key, report)
        reports.append(report)

    if "lemma4" in cfg.checks:
        for prime in cfg.primes:
            max_exp = 0
            while prime ** (max_exp + 1) <= cfg.max_order:
                max_exp += 1
            if max_exp >= 1:
                reports.append(_sweep_report(prime, max_exp))
    return reports


def emit_report(reports: Sequence[GroupReport], output_format: str = "json") -> str:
    """Serialize reports; identical inputs always produce identical bytes."""
    if output_format == "json":
        doc = {
            "artifactVersion": __version__,
            "reports": [report_to_json_dict(r) for r in reports],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if output_format == "csv":
        # the JSON document flattened: one row per check, its status as verdict
        lines = [",".join(_CSV_COLUMNS)]
        for r in reports:
            doc = report_to_json_dict(r)
            flat = {**doc, **(doc["conditionSide"] or {}), **(doc["oracleSide"] or {})}
            for check, status in doc["lemmaChecks"].items():
                row = {**flat, "check": check, "verdict": status}
                lines.append(
                    ",".join("" if row.get(c) is None else str(row[c]) for c in _CSV_COLUMNS)
                )
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown output format {output_format!r}")


def has_failures(reports: Iterable[GroupReport]) -> bool:
    return any(r.verdict in ("COUNTEREXAMPLE", "error") for r in reports)
