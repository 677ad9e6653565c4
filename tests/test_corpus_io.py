import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from centauts import (
    RunConfig,
    analyze_group,
    emit_report,
    group_file_text,
    invariants,
    parse_group_file,
    parse_group_text,
    scan_corpus,
    serialize_group,
)
import centauts.corpus as corpus
from centauts.cli import main
from centauts.corpus import (
    _cache_key,
    _cache_read,
    _catalog_entries,
    catalog,
    catalog_group,
    central_product,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    has_failures,
    heisenberg_group,
    metacyclic_group,
)
from centauts.errors import ConfigError, NotAGroup, NotNormal, ParseError
from centauts.groups import Group
from oracles import json_cache_key, pairwise_product, scalar_table, stem_named

# sha256 of the concatenated JSON cache keys (oracles.json_cache_key) of every
# catalog group under the default checks and budget.  That key hashes the
# group's table and name, so this pins every catalog table, its element order
# and its name, independently of the scan's own key format.
CATALOG_CACHE_DIGEST = "010591cdd59540da2eb853cedec4a07e4def4e3ca252e8bb924a8edb3d090e26"
# The same over the scan's cache keys (_cache_key); a change that moves it
# leaves every existing cache directory stale.
CATALOG_TABLE_KEY_DIGEST = "74ea5a081359739619235d51f4e953c15e02c1c685b137374c4ed03cb8fc4313"

# JSON nested deeper than the decoder's recursion allows, and a product
# document whose factors nest 900 deep
DEEP_BRACKETS = "[" * 100_000 + "]" * 100_000
DEEP_PRODUCT = '{"format": "product", "factors": [' * 900 + '"C2"' + "]}" * 900


def _counting_constructor(monkeypatch) -> list:
    """The names passed to every ``Group.__init__`` from now on, in call order."""
    built = []
    init = Group.__init__

    def counting_init(self, table, name=None):
        built.append(name)
        init(self, table, name)

    monkeypatch.setattr(Group, "__init__", counting_init)
    return built


def _scalar_builders():
    """(library group, elements, scalar product) for each table-built family."""
    for k in (1, 2, 5, 9):
        yield cyclic_group(k), list(range(k)), lambda a, b, k=k: (a + b) % k
    for m in (3, 4, 8):
        def dihedral(a, b, m=m):
            (i, j), (k, l) = a, b
            return ((i + k) % m, l) if j == 0 else ((i - k) % m, 1 - l)

        yield dihedral_group(m), [(i, j) for j in (0, 1) for i in range(m)], dihedral
    for m in (2, 3, 4):
        def dicyclic(a, b, m=m):
            (i, j), (k, l) = a, b
            if j == 0:
                return (i + k) % (2 * m), l
            if l == 0:
                return (i - k) % (2 * m), 1
            return (i - k + m) % (2 * m), 0

        yield dicyclic_group(m), [(i, j) for j in (0, 1) for i in range(2 * m)], dicyclic
    for n, m, r in ((8, 2, 5), (8, 2, 3), (4, 4, 3), (9, 3, 4), (9, 9, 4), (7, 3, 2)):
        def metacyclic(a, b, n=n, r=r, m=m):
            (j, i), (jp, ip) = a, b
            return (j + jp) % m, (i * pow(r, jp, n) + ip) % n

        yield (
            metacyclic_group(n, m, r),
            [(j, i) for j in range(m) for i in range(n)],
            metacyclic,
        )
    for p in (2, 3):
        def heisenberg(a, b, p=p):
            return (a[0] + b[0]) % p, (a[1] + b[1]) % p, (a[2] + b[2] + a[0] * b[1]) % p

        elems = [(x, y, z) for x in range(p) for y in range(p) for z in range(p)]
        yield heisenberg_group(p), elems, heisenberg


class TestCatalog:
    def test_q8_has_one_involution(self, groups):
        q8 = groups["Q8"]
        assert q8.n == 8
        assert sum(1 for o in q8.element_orders() if o == 2) == 1

    def test_heis3_profile(self, groups):
        g = groups["Heis3"]
        assert g.n == 27 and g.nilpotency_class() == 2 and g.exponent() == 3

    def test_d8xq8_center_type(self, groups):
        g = groups["D8xQ8"]
        assert g.n == 64
        assert invariants(g.center().as_group(), 2).exps == (1, 1)

    def test_construction_is_deterministic(self):
        # two catalogs, so that no step result is shared between the builds
        for name in ("D8", "Q8", "M16", "Heis3", "D8cpD8"):
            a, b = catalog()[name](), catalog()[name]()
            assert np.array_equal(a.mul, b.mul), name

    def test_names_match_orders(self, groups):
        assert groups["D8xD8"].n == 64
        assert groups["Heis3cpC9"].n == 81
        assert groups["C9sdC9"].n == 81

    def test_entries_carry_their_names(self, groups):
        assert all(g.name == name for name, g in groups.items())

    @staticmethod
    def _catalog_key_digest(key) -> str:
        cfg = RunConfig()
        keys = "".join(key(make(), cfg.checks, cfg.budget) for make in catalog().values())
        return hashlib.sha256(keys.encode()).hexdigest()

    def test_cache_keys_pin_the_catalog(self):
        assert self._catalog_key_digest(json_cache_key) == CATALOG_CACHE_DIGEST

    def test_table_byte_keys_pin_the_catalog(self):
        def key(g, checks, budget):
            return _cache_key(g.name, g.mul, checks, budget)

        assert self._catalog_key_digest(key) == CATALOG_TABLE_KEY_DIGEST

    def test_cache_key_sensitivity(self, monkeypatch):
        d8 = dihedral_group(4, "D8")
        checks = ("theorem", "prop1", "lemma3")
        base = _cache_key("D8", d8.mul, checks, 100)
        # the key reads only a name and a table, so one changed entry needs no group
        mul = d8.mul.copy()
        mul[3, 5] = (mul[3, 5] + 1) % 8
        changed = {
            "name": _cache_key("D8b", d8.mul, checks, 100),
            "table-entry": _cache_key("D8", mul, checks, 100),
            "checks": _cache_key("D8", d8.mul, checks[:2], 100),
            "budget": _cache_key("D8", d8.mul, checks, 101),
        }
        monkeypatch.setattr(corpus, "__version__", "0.0.0-other")
        changed["version"] = _cache_key("D8", d8.mul, checks, 100)
        monkeypatch.undo()
        assert len({base, *changed.values()}) == 1 + len(changed), changed
        assert _cache_key("D8", np.array(d8.mul.tolist()), checks, 100) == base
        assert _cache_key("D8", d8.mul, [*reversed(checks), "theorem"], 100) == base

    def test_catalog_validates_each_table_once(self, monkeypatch):
        built = _counting_constructor(monkeypatch)
        entries = catalog()
        for make in entries.values():
            make()
        assert built == list(entries) and len(built) == 49

    def test_entries_declare_order_and_prime(self, groups):
        entries = _catalog_entries()
        assert list(entries) == list(groups)
        for name, entry in entries.items():
            group = groups[name]
            assert (entry.order, entry.prime) == (group.n, group.p_group_prime()), name

    def test_scan_builds_only_entries_inside_its_filters(self, monkeypatch):
        built = _counting_constructor(monkeypatch)
        reports = scan_corpus(RunConfig(max_order=81, primes=(2, 3), checks=("cor1",)))
        names = [r.group_id for r in reports]
        assert [b for b in built if b in catalog()] == names
        assert "Heis5" not in names and "C5" not in names and "S3" in names

    def test_central_product_needs_central_elements(self):
        d8, c4 = dihedral_group(4), cyclic_group(4)
        assert np.array_equal(central_product(d8, c4, 2, 2, "D8cpC4").mul, catalog_group("D8cpC4").mul)
        assert central_product(d8, c4, 2, 2, "D8cpC4").n == 16
        with pytest.raises(NotNormal, match="zg=1 is not central"):
            central_product(d8, c4, 1, 2, "bad")
        with pytest.raises(NotNormal, match="zh=1 is not central"):
            central_product(c4, d8, 2, 1, "bad")

    def test_builders_match_scalar_reference(self):
        for group, elements, mul in _scalar_builders():
            assert group.mul.tolist() == scalar_table(elements, mul), group.name

    def test_radix_table_rejects_an_out_of_range_coordinate(self):
        # the first coordinate of (2, 3) is not reduced mod 2
        with pytest.raises(ValueError):
            corpus._radix_table((2, 3), lambda a, b: (a[0] + b[0], (a[1] + b[1]) % 3))

    def test_catalog_group_unknown(self):
        with pytest.raises(ParseError):
            catalog_group("NoSuchGroup")


class TestGroupFiles:
    @pytest.mark.parametrize(
        "cell", ["true", "false", "1.0", '"1"', "[1]"],
        ids=["bool-true", "bool-false", "float", "string", "nested-list"],
    )
    @pytest.mark.parametrize(
        "field, doc",
        [
            ("table", '{{"format": "cayley", "table": [[0, 1], [1, {cell}]]}}'),
            ("generators", '{{"format": "perm", "degree": 2, "generators": [[{cell}, 0]]}}'),
        ],
        ids=["table", "generators"],
    )
    def test_non_integer_cells_are_rejected(self, field, doc, cell):
        message = f"^field '{field}' must be a list of lists of integers$"
        with pytest.raises(ParseError, match=message):
            parse_group_text(doc.format(cell=cell))

    def test_parse_cayley_c2(self):
        g = parse_group_text('{"name": "C2", "format": "cayley", "n": 2, "table": [[0,1],[1,0]]}')
        assert g.n == 2 and g.name == "C2"

    def test_parse_perm_d8(self):
        doc = {
            "name": "D8",
            "format": "perm",
            "degree": 4,
            "generators": [[1, 2, 3, 0], [2, 1, 0, 3]],
        }
        g = parse_group_text(json.dumps(doc))
        assert g.n == 8

    def test_parse_product_of_catalog_names(self):
        doc = {"name": "both", "format": "product", "factors": ["D8", "C2"]}
        g = parse_group_text(json.dumps(doc))
        assert g.n == 16 and g.name == "both"

    def test_parse_nested_product(self):
        doc = {
            "format": "product",
            "factors": [
                {"format": "cayley", "table": [[0, 1], [1, 0]]},
                "C2",
            ],
        }
        assert parse_group_text(json.dumps(doc)).n == 4

    def test_malformed_json(self):
        with pytest.raises(ParseError, match="line"):
            parse_group_text("{not json")

    def test_bad_table_is_rejected(self):
        with pytest.raises(NotAGroup):
            parse_group_text('{"format": "cayley", "table": [[0,1],[1,1]]}')

    def test_missing_fields(self):
        with pytest.raises(ParseError, match="table"):
            parse_group_text('{"format": "cayley"}')
        with pytest.raises(ParseError, match="format"):
            parse_group_text('{"table": [[0]]}')

    @pytest.mark.parametrize("text", [DEEP_BRACKETS, DEEP_PRODUCT], ids=["brackets", "product"])
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_group_text(text)

    def test_huge_degree_without_generators_is_trivial(self):
        # no degree-length permutation is built for the trivial group
        doc = {"format": "perm", "degree": 10**12, "generators": []}
        assert parse_group_text(json.dumps(doc)).n == 1
        doc["generators"] = [[0]]
        with pytest.raises(NotAGroup, match="not a bijection"):
            parse_group_text(json.dumps(doc))

    def test_wrong_n_field(self):
        with pytest.raises(ParseError, match="'n'"):
            parse_group_text('{"format": "cayley", "n": 3, "table": [[0,1],[1,0]]}')

    def test_roundtrip_through_file(self, tmp_path, groups):
        for name in ("D8", "Q8", "Heis3"):
            g = groups[name]
            path = tmp_path / f"{name}.json"
            path.write_text(group_file_text(g))
            back = parse_group_file(path)
            assert np.array_equal(back.mul, g.mul), name
            again = parse_group_text(group_file_text(back))
            assert np.array_equal(again.mul, g.mul), name

    def test_file_stem_used_when_unnamed(self, tmp_path):
        path = tmp_path / "mystery.json"
        path.write_text('{"format": "cayley", "table": [[0,1],[1,0]]}')
        assert parse_group_file(path).name == "mystery"

    PRODUCTS = [
        ["D8", "C2", "C2"],
        ["Q8"],
        ["Heis3", "C3"],
        [{"format": "cayley", "table": [[0, 1], [1, 0]]}, "C2"],
        [{"format": "cayley", "table": [[0, 1], [1, 0]]}],
        ["C2", {"format": "product", "factors": ["C2", "C4"]}],
        [{"format": "perm", "degree": 4, "generators": [[1, 2, 3, 0], [2, 1, 0, 3]]}, "C2"],
    ]

    @pytest.mark.parametrize("factors", PRODUCTS)
    @pytest.mark.parametrize("name", [None, "both", "G16", ""])
    def test_product_matches_pairwise_products(self, factors, name):
        doc = {"format": "product", "factors": factors}
        if name is not None:
            doc["name"] = name
        parts = [
            catalog_group(f) if isinstance(f, str) else parse_group_text(json.dumps(f))
            for f in factors
        ]
        expected = pairwise_product(parts, name)
        g = parse_group_text(json.dumps(doc))
        assert np.array_equal(g.mul, expected.mul)
        assert g.name == expected.name

    def test_product_validates_each_factor_and_the_result_once(self, monkeypatch):
        built = _counting_constructor(monkeypatch)
        doc = {"name": "both", "format": "product", "factors": ["D8", "C2", "C2"]}
        assert parse_group_text(json.dumps(doc)).n == 32
        assert built == ["D8", "C2", "C2", "both"]

    @pytest.mark.parametrize(
        "doc",
        [
            {"format": "cayley", "table": [[0, 1], [1, 0]]},
            {"name": "G2", "format": "cayley", "table": [[0, 1], [1, 0]]},
            {"name": "named", "format": "cayley", "table": [[0, 1], [1, 0]]},
            {"format": "perm", "degree": 3, "generators": [[1, 2, 0]]},
            {"name": "G4", "format": "perm", "degree": 3, "generators": [[1, 2, 0]]},
            {"format": "product", "factors": ["D8", "C2"]},
            {"name": "G16", "format": "product", "factors": ["D8", "C2"]},
            {"format": "product", "factors": [{"format": "cayley", "table": [[0]]}]},
            {"format": "product", "factors": ["C2"]},
        ],
    )
    def test_file_stem_names_the_default_name(self, tmp_path, monkeypatch, doc):
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps(doc))
        expected = stem_named(parse_group_text(json.dumps(doc)), "mystery")
        built = _counting_constructor(monkeypatch)
        g = parse_group_file(path)
        assert np.array_equal(g.mul, expected.mul)
        assert g.name == expected.name
        assert built[-1] == g.name  # named as it is built, not wrapped again


class TestRunConfig:
    def test_empty_checks_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            RunConfig(checks=())

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            RunConfig(checks=("theorem", "bogus"))

    def test_max_order_bounds(self):
        with pytest.raises(ConfigError):
            RunConfig(max_order=0)
        with pytest.raises(ConfigError):
            RunConfig(max_order=100000)

    def test_fields_are_the_scan_settings(self):
        names = [f.name for f in dataclasses.fields(RunConfig)]
        assert names == ["max_order", "primes", "checks", "cache_dir", "budget"]


SMALL_CFG = dict(max_order=16, primes=(2, 3), checks=("theorem", "cor1", "lemma0a"))


class TestScan:
    def test_reports_cover_catalog_within_caps(self):
        cfg = RunConfig(**SMALL_CFG)
        reports = scan_corpus(cfg)
        expected = [
            name
            for name, make in catalog().items()
            if make().n <= 16 and (make().p_group_prime() in (2, 3, None))
        ]
        assert [r.group_id for r in reports] == expected
        assert not has_failures(reports)

    def test_lemma4_adds_sweep_rows(self):
        cfg = RunConfig(max_order=16, primes=(2,), checks=("lemma4",))
        reports = scan_corpus(cfg)
        assert reports[-1].group_id == "lemma4-sweep-p2"
        assert reports[-1].lemma_checks == {"lemma4": "pass"}

    def test_deterministic_byte_identical(self):
        cfg = RunConfig(**SMALL_CFG)
        first = emit_report(scan_corpus(cfg), "json")
        second = emit_report(scan_corpus(cfg), "json")
        assert first == second
        first_csv = emit_report(scan_corpus(cfg), "csv")
        second_csv = emit_report(scan_corpus(cfg), "csv")
        assert first_csv == second_csv

    def test_cache_round_trip(self, tmp_path):
        cfg = RunConfig(cache_dir=str(tmp_path), **SMALL_CFG)
        fresh = scan_corpus(cfg)
        assert any(tmp_path.iterdir())
        cached = scan_corpus(cfg)
        assert emit_report(fresh, "json") == emit_report(cached, "json")
        no_cache = scan_corpus(RunConfig(**SMALL_CFG))
        assert emit_report(no_cache, "json") == emit_report(cached, "json")

    def test_cache_env_var_is_ignored(self, tmp_path, monkeypatch):
        # RunConfig.cache_dir is the one cache setting; the environment is not read
        monkeypatch.setenv("CENTAUTS_CACHE_DIR", str(tmp_path))
        scan_corpus(RunConfig(**SMALL_CFG))
        assert list(tmp_path.iterdir()) == []

    def test_uncreatable_cache_dir_fails_before_any_analysis(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        analyzed = []
        monkeypatch.setattr(corpus, "analyze_group", lambda *args: analyzed.append(args))
        for cache_dir in (blocker, blocker / "sub"):
            with pytest.raises(ConfigError, match=f"cache directory {str(cache_dir)!r}"):
                scan_corpus(RunConfig(cache_dir=str(cache_dir), **SMALL_CFG))
        assert analyzed == []
        assert blocker.read_text() == ""

    def test_failed_cache_write_is_a_config_error(self, tmp_path, monkeypatch):
        def refuse(**kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(corpus.tempfile, "mkstemp", refuse)
        with pytest.raises(ConfigError, match="No space left on device"):
            scan_corpus(RunConfig(cache_dir=str(tmp_path / "cache"), **SMALL_CFG))
        assert list((tmp_path / "cache").iterdir()) == []


# The benchmark's reference: the scan of every check at max_order 81, primes 2 and 3.
REFERENCE_SCAN = Path(__file__).resolve().parents[1] / "benchmarks/reference/catalog_scan.json"
REFERENCE_CFG = dict(max_order=81, primes=(2, 3))


class TestCacheHits:
    """A cache hit reads its report without building a Group; a miss builds
    and validates the group, then writes its report."""

    @staticmethod
    def _scan(cache_dir: Path) -> str:
        return emit_report(scan_corpus(RunConfig(cache_dir=str(cache_dir), **REFERENCE_CFG)))

    @staticmethod
    def _catalog_builds(names) -> list:
        entries = _catalog_entries()
        return [n for n in names if n in entries]

    def test_warm_scan_builds_no_group(self, tmp_path, monkeypatch):
        reference = REFERENCE_SCAN.read_text(encoding="utf-8")
        built = _counting_constructor(monkeypatch)
        assert self._scan(tmp_path) == reference
        names = self._catalog_builds(r["groupId"] for r in json.loads(reference)["reports"])
        assert len(names) == 47
        # the fill validates each in-filter entry once, in catalog order
        assert self._catalog_builds(built) == names
        built.clear()
        assert self._scan(tmp_path) == reference
        assert built == []

    def test_each_table_step_runs_once_per_scan(self, tmp_path, monkeypatch):
        reference = REFERENCE_SCAN.read_text(encoding="utf-8")
        calls = Counter()
        for step in ("_cyclic_table", "_dihedral_table", "_dicyclic_table",
                     "_metacyclic_table", "_heisenberg_table"):
            def counting(*args, step=step, run=getattr(corpus, step)):
                calls[(step, *args)] += 1
                return run(*args)

            monkeypatch.setattr(corpus, step, counting)
        # no cache, then a cache filled and then read
        for cache_dir in (None, str(tmp_path), str(tmp_path)):
            calls.clear()
            cfg = RunConfig(cache_dir=cache_dir, **REFERENCE_CFG)
            assert emit_report(scan_corpus(cfg)) == reference
            for step in (("_dihedral_table", 4), ("_cyclic_table", 2), ("_dicyclic_table", 2)):
                assert calls[step] == 1, (cache_dir, step)
            assert set(calls.values()) == {1}, (cache_dir, calls)

    def test_indented_entries_are_hits_and_stay(self, tmp_path, monkeypatch):
        """Entries written before entries became compact JSON still hit, unrewritten."""
        reference = REFERENCE_SCAN.read_text(encoding="utf-8")
        assert self._scan(tmp_path) == reference
        entries = sorted(tmp_path.glob("*.json"))
        assert len(entries) == 47
        for path in entries:
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert path.read_text(encoding="utf-8") == json.dumps(doc, sort_keys=True)
            path.write_text(json.dumps(doc, sort_keys=True, indent=2), encoding="utf-8")
        before = {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in entries}
        built = _counting_constructor(monkeypatch)
        assert self._scan(tmp_path) == reference
        assert built == []
        assert {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in entries} == before
        assert sorted(tmp_path.iterdir()) == entries

    def test_raw_table_key_is_the_group_key(self):
        cfg = RunConfig()
        for checks in (cfg.checks, ("theorem", "lemma3")):
            for name, entry in _catalog_entries().items():
                table = entry.table()
                group = Group(table, name)
                assert _cache_key(name, table, checks, cfg.budget) == _cache_key(
                    group.name, group.mul, checks, cfg.budget
                ), name

    def test_truncated_entry_is_a_miss_that_validates_and_rewrites(self, tmp_path, monkeypatch):
        reference = REFERENCE_SCAN.read_text(encoding="utf-8")
        assert self._scan(tmp_path) == reference
        cfg = RunConfig()
        table = _catalog_entries()["D8cpD8"].table()
        path = tmp_path / f"{_cache_key('D8cpD8', table, cfg.checks, cfg.budget)}.json"
        written = path.read_bytes()
        path.write_bytes(written[: len(written) // 2])
        assert _cache_read(tmp_path, path.stem) is None
        built = _counting_constructor(monkeypatch)
        assert self._scan(tmp_path) == reference
        assert self._catalog_builds(built) == ["D8cpD8"]
        assert path.read_bytes() == written
        assert json.loads(written)["groupId"] == "D8cpD8"


class TestEmission:
    def test_empty_csv_is_header_only(self):
        out = emit_report([], "csv")
        assert out.splitlines() == [
            "groupId,check,order,prime,class,rEqS,residualIso,expEq,all,"
            "autcentOrder,autZZOrder,innOrder,verdict"
        ]

    def test_json_round_trip(self, groups):
        rep = analyze_group(groups["D8"], ("theorem",))
        text = emit_report([rep], "json")
        doc = json.loads(text)
        entry = doc["reports"][0]
        assert entry["groupId"] == "D8"
        assert entry["conditionSide"]["all"] is True
        assert entry["oracleSide"]["autcentOrder"] == 4
        assert entry["lemmaChecks"] == {"theorem": "pass"}
        assert json.loads(emit_report([rep], "json")) == doc

    def test_csv_row_per_group_and_check(self, groups):
        reports = [
            analyze_group(groups["D8"], ("theorem", "cor1")),
            analyze_group(groups["C4"], ("theorem", "cor1")),
        ]
        lines = emit_report(reports, "csv").splitlines()
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("D8,cor1,8,2,2,True,True,True,True,4,4,4,pass")
        assert lines[4].endswith("not-applicable")
        scan = emit_report(scan_corpus(RunConfig(max_order=16, primes=(2,))), "csv").splitlines()
        assert len(scan) == 142
        for row in (
            "lemma4-sweep-p2,lemma4,16,2,,,,,,,,,pass",
            "C4,theorem,4,2,1,,,,,,,,not-applicable",
            "D8,theorem,8,2,2,True,True,True,True,4,4,4,pass",
        ):
            assert row in scan

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError, match="unknown output format 'xml'"):
            emit_report([], "xml")

    def test_serialize_group_shape(self, groups):
        doc = serialize_group(groups["C2"])
        assert doc == {"name": "C2", "format": "cayley", "n": 2, "table": [[0, 1], [1, 0]]}


class TestCli:
    def test_analyze_catalog_name(self, capsys):
        rc = main(["analyze", "D8", "--check", "theorem", "--check", "cor1"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["reports"][0]["groupId"] == "D8"
        assert doc["reports"][0]["verdict"] == "agree"

    def test_analyze_file(self, tmp_path, capsys, groups):
        path = tmp_path / "q8.json"
        path.write_text(group_file_text(groups["Q8"]))
        rc = main(["analyze", str(path), "--check", "lemma0a", "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[1].startswith("Q8,lemma0a,8,2,2")

    def test_analyze_unknown_is_error(self, capsys):
        rc = main(["analyze", "NoSuchThing"])
        assert rc == 2
        assert "neither" in capsys.readouterr().err

    def test_scan_small(self, capsys):
        rc = main(["scan", "--max-order", "8", "--prime", "2", "--check", "theorem"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        ids = [r["groupId"] for r in doc["reports"]]
        assert "D8" in ids and "Q8" in ids

    def test_sweep_lemma4(self, capsys):
        rc = main(["sweep-lemma4", "--prime", "2", "--max-exp", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict=agree" in out and "triples=" in out

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
    def test_scan_into_an_unusable_cache_dir_is_an_error(self, tmp_path, capsys, below):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cache_dir = str(blocker / below) if below else str(blocker)
        rc = main(["scan", "--max-order", "8", "--prime", "2", "--cache-dir", cache_dir])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith(f"error: cache directory {cache_dir!r} cannot be used")

    def test_list_catalog(self, capsys):
        rc = main(["list-catalog"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "D8xQ8" in out and "Heis5" in out

    @pytest.mark.parametrize(
        "content",
        [
            b"{",
            None,  # a directory in place of the file
            b"\xff\xfe{",
            b'{"format": "cayley", "table": [[0, 1], [1]]}',
            b'{"format": "cayley", "table": [["a"]]}',
            b'{"format": "cayley", "table": [[0.5]]}',
            b'{"format": "perm", "degree": 2, "generators": 5}',
            b'{"format": "perm", "degree": 2, "generators": [[1, "x"]]}',
            b'{"format": "cayley", "n": true, "table": [[0]]}',
            b'{"format": "perm", "degree": true, "generators": [[0]]}',
            DEEP_BRACKETS.encode(),
            DEEP_PRODUCT.encode(),
        ],
        ids=["bad-json", "directory", "non-utf8", "ragged", "strings", "float", "int-generators",
             "string-generator", "bool-n", "bool-degree", "deep-brackets", "deep-product"],
    )
    def test_bad_group_file_reports_error(self, tmp_path, capsys, content):
        path = tmp_path / "broken.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        rc = main(["analyze", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
