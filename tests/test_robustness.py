"""Corrupt caches, budgets on cached searches, and configuration bounds."""

import json

import pytest

from centauts import (
    RunConfig,
    abelian_factor_split,
    all_automorphisms,
    autcent,
    emit_report,
    from_cayley_table,
    homs_to_central_subgroup,
    parse_group_text,
    scan_corpus,
    verify_lemma0,
)
import centauts.automorphisms as automorphisms
import centauts.oracle as oracle
from centauts.cli import main
from centauts.corpus import _cache_read, abelian_group, analyze_group, catalog_group
from centauts.errors import BudgetExceeded, ConfigError


class TestCorruptCache:
    CFG = dict(max_order=8, primes=(2,), checks=("theorem", "cor1"))

    @pytest.mark.parametrize(
        "payload",
        [
            b"[1, 2]",
            b"\xff\xfe\x00not utf-8",
            b'"a string"',
            b'{"groupId": "D8", "conditionSide": [1]}',
            b"{truncated",
            b'{"groupId": "D8", "order": 8, "prime": 2, "class": 2, "conditionSide": null,'
            b' "oracleSide": {"autcentOrder": 4, "autZZOrder": 4, "autcentEqualsAutZZ": true,'
            b' "autcentEqualsInn": true}, "lemmaChecks": {}, "verdict": "agree"}',
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["list", "non-utf8", "string", "wrong-field-type", "bad-json", "oracle-lacks-inn",
             "deep-nesting"],
    )
    def test_unreadable_entry_is_a_miss(self, tmp_path, payload):
        cfg = RunConfig(cache_dir=str(tmp_path), **self.CFG)
        fresh = emit_report(scan_corpus(cfg), "json")
        entries = sorted(tmp_path.glob("*.json"))
        assert entries
        for path in entries:
            path.write_bytes(payload)
            assert _cache_read(tmp_path, path.stem) is None
        assert emit_report(scan_corpus(cfg), "json") == fresh
        # the misses were recomputed and written back
        assert all(_cache_read(tmp_path, path.stem) is not None for path in entries)

    @pytest.mark.parametrize(
        "field, edit",
        [
            (("oracleSide", "innOrder"), lambda _: "four"),
            (("verdict",), lambda _: "agree?"),
            (("lemmaChecks", "theorem"), lambda _: 7),
            (("conditionSide", "rEqS"), lambda _: "yes"),
            (("conditionSide", "all"), lambda old: not old),
            (("groupId",), lambda _: 8),
            (("order",), lambda _: True),
            (("class",), lambda _: "2"),
        ],
        ids=["inn-order-string", "unknown-verdict", "status-int", "flag-string", "all-disagrees",
             "id-int", "order-bool", "class-string"],
    )
    def test_wrong_field_value_is_a_miss(self, tmp_path, field, edit):
        cfg = RunConfig(cache_dir=str(tmp_path), **self.CFG)
        fresh = emit_report(scan_corpus(cfg), "json")
        *outer, key = field
        edited = []
        for path in sorted(tmp_path.glob("*.json")):
            doc = json.loads(path.read_text(encoding="utf-8"))
            holder = doc
            for k in outer:
                holder = holder[k]
            if holder is None:  # no sides on a group the theorem does not apply to
                continue
            holder[key] = edit(holder[key])
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert _cache_read(tmp_path, path.stem) is None, (path.name, field)
            edited.append(path)
        assert edited
        assert emit_report(scan_corpus(cfg), "json") == fresh
        # the misses were recomputed and written back
        assert all(_cache_read(tmp_path, path.stem) is not None for path in edited)

    def test_another_groups_report_is_a_miss(self, tmp_path):
        # D8 and Q8 swap their entries' contents: each is well formed, but
        # under the key of the other group
        cfg = RunConfig(max_order=8, primes=(2,), cache_dir=str(tmp_path))
        fresh = emit_report(scan_corpus(RunConfig(max_order=8, primes=(2,))), "json")
        assert emit_report(scan_corpus(cfg), "json") == fresh
        paths = {json.loads(p.read_text(encoding="utf-8"))["groupId"]: p
                 for p in tmp_path.glob("*.json")}
        d8, q8 = paths["D8"].read_bytes(), paths["Q8"].read_bytes()
        paths["D8"].write_bytes(q8)
        paths["Q8"].write_bytes(d8)
        assert emit_report(scan_corpus(cfg), "json") == fresh
        for name in ("D8", "Q8"):
            assert json.loads(paths[name].read_text(encoding="utf-8"))["groupId"] == name

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["lemmaChecks"].pop("cor1"),
            lambda doc: doc["lemmaChecks"].update(lemma3="pass"),
            lambda doc: doc.update(order=2 * doc["order"]),
        ],
        ids=["check-dropped", "check-added", "other-order"],
    )
    def test_entry_of_another_check_set_or_order_is_a_miss(self, tmp_path, edit):
        cfg = RunConfig(cache_dir=str(tmp_path), **self.CFG)
        fresh = emit_report(scan_corpus(cfg), "json")
        entries = sorted(tmp_path.glob("*.json"))
        for path in entries:
            doc = json.loads(path.read_text(encoding="utf-8"))
            edit(doc)
            path.write_text(json.dumps(doc), encoding="utf-8")
        assert emit_report(scan_corpus(cfg), "json") == fresh
        # the misses were recomputed and written back
        written = {r.group_id: r for r in (_cache_read(tmp_path, p.stem) for p in entries)}
        assert written == {r.group_id: r for r in scan_corpus(RunConfig(**self.CFG))}

    def test_directory_in_place_of_entry_is_a_miss(self, tmp_path):
        (tmp_path / "abc.json").mkdir()
        assert _cache_read(tmp_path, "abc") is None


def _outcome(group, budget, search):
    try:
        return len(search(group, budget))
    except BudgetExceeded as exc:
        return str(exc)


def homs_to_center(group, budget=None):
    return homs_to_central_subgroup(group, group.center(), budget)


def abelian_split(group, budget=None):
    return abelian_factor_split(group, budget) or ()


class TestBudgetOnCachedSearch:
    @pytest.mark.parametrize(
        "search", [all_automorphisms, autcent, homs_to_center, abelian_split]
    )
    @pytest.mark.parametrize("name", ["D8", "Q8"])
    def test_cached_result_obeys_budget_like_a_fresh_search(self, name, search):
        cached = catalog_group(name)
        search(cached)
        budgets = range(-1, 50)
        fresh = [_outcome(catalog_group(name), b, search) for b in budgets]
        assert [_outcome(cached, b, search) for b in budgets] == fresh
        # the range spans both outcomes: small budgets raise, the largest suffices
        assert isinstance(fresh[0], str) and isinstance(fresh[-1], int)

    def test_d8xq8_budget_one_raises_after_caching(self, groups):
        g = groups["D8xQ8"]
        assert len(all_automorphisms(g)) == 3072
        assert len(autcent(g)) == 256
        with pytest.raises(BudgetExceeded, match="budget 1 "):
            all_automorphisms(g, budget=1)
        with pytest.raises(BudgetExceeded, match="budget 1 "):
            autcent(g, budget=1)

    def test_trivial_group_never_exceeds(self):
        g = from_cayley_table([[0]])
        assert len(all_automorphisms(g, budget=-1)) == 1

    def test_purity_obeys_the_budget(self):
        # deciding that D8xC2 has an abelian factor needs its Hom search, so a
        # budget below that search makes lemma0a an error, not not-applicable
        g = catalog_group("D8xC2")
        assert analyze_group(g, ("lemma0a",), 0).lemma_checks == {"lemma0a": "error"}
        assert analyze_group(g, ("lemma0a",)).lemma_checks == {"lemma0a": "not-applicable"}

    def test_abelian_groups_are_not_applicable_before_any_search(self, monkeypatch):
        # a non-trivial abelian group is its own abelian direct factor, so
        # lemma0a reads not-applicable at any budget without searching, even
        # where Hom(G, Z) = Hom(C2^5, C2^5) has 2^25 rows
        def refuse(*args, **kwargs):
            raise AssertionError("lemma0a searched an abelian group")

        monkeypatch.setattr(oracle, "_search_maps", refuse)
        monkeypatch.setattr(automorphisms, "_basis_homs", refuse)
        doc = {"name": "C2^5", "format": "product", "factors": ["C2"] * 5}
        g = parse_group_text(json.dumps(doc))
        for budget in (0, None):
            assert analyze_group(g, ("lemma0a",), budget).lemma_checks == {
                "lemma0a": "not-applicable"
            }
        monkeypatch.undo()
        trivial = from_cayley_table([[0]])
        assert analyze_group(trivial, ("lemma0a",), 0).lemma_checks == {"lemma0a": "pass"}


def _refuse_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("a basis of G^ab was built")

    monkeypatch.setattr(automorphisms, "_abelian_basis", refuse)


class TestBoundsBeforeTheBuild:
    """The rows of Hom(G^ab, M) are a type formula, so the budget and the cell
    bound are checked before any basis or row exists."""

    def test_budget_raises_before_the_basis(self, monkeypatch):
        _refuse_basis(monkeypatch)
        g = abelian_group([2] * 5, name="C2^5")
        with pytest.raises(BudgetExceeded) as exc:
            verify_lemma0(g, g.center())
        assert str(exc.value) == (
            "homomorphism search for C2^5: 10000001 extension attempts exceed "
            "the budget 10000000 (naive candidate space 33554432)"
        )

    def test_cell_bound_is_an_error_verdict(self, monkeypatch):
        # Hom(D8^ab, Z(D8)) = Hom(C2 x C2, C2): 4 rows of 4 cells each
        _refuse_basis(monkeypatch)
        monkeypatch.setattr(automorphisms, "HOM_CELL_CAP", 15)
        report = analyze_group(catalog_group("D8"), ("lemma0",))
        assert report.lemma_checks == {"lemma0": "error"}
        assert report.verdict == "error"
        assert report.error == (
            "lemma0: Hom(G^ab, M) for D8 has 4 rows x 4 columns = 16 cells, "
            "over the cell bound 15"
        )


class TestBounds:
    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError, match="budget"):
            RunConfig(budget=-1)
        assert RunConfig(budget=0).budget == 0

    @pytest.mark.parametrize("p", [1, 0, 4])
    def test_non_prime_rejected(self, p):
        # with p = 1 the lemma4 exponent search of a scan would never end
        with pytest.raises(ConfigError, match="prime"):
            RunConfig(primes=(p,))

    def test_repeated_prime_rejected(self, capsys):
        # a repeated prime would repeat its lemma4 sweep report
        with pytest.raises(ConfigError, match=r"primes must be distinct, got \[2, 3, 2\]"):
            RunConfig(primes=(2, 3, 2))
        argv = ["scan", "--max-order", "8", "--prime", "2", "--prime", "2", "--check", "lemma4"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: primes must be distinct, got [2, 2]\n"
        assert captured.out == ""

    def test_analyze_negative_budget_rejected(self, capsys):
        # the same message and exit code as scan, before any check runs
        assert main(["analyze", "D8", "--check", "theorem", "--budget", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: budget must be non-negative, got -5\n"
        assert captured.out == ""
        assert main(["scan", "--max-order", "8", "--budget", "-5"]) == 2
        assert capsys.readouterr().err == captured.err

    def test_sweep_non_prime_rejected(self, capsys):
        assert main(["sweep-lemma4", "--prime", "4", "--max-exp", "2"]) == 2
        assert "--prime must be a prime, got 4" in capsys.readouterr().err

    @pytest.mark.parametrize("max_exp", ["-1", "0", "13"])
    def test_sweep_max_exp_out_of_range(self, capsys, max_exp):
        assert main(["sweep-lemma4", "--prime", "2", "--max-exp", max_exp]) == 2
        assert "--max-exp must be within [1, 12]" in capsys.readouterr().err

    def test_sweep_max_exp_lower_end(self, capsys):
        assert main(["sweep-lemma4", "--prime", "3", "--max-exp", "1"]) == 0
        assert "verdict=agree" in capsys.readouterr().out
