"""The check registry, per-check error verdicts, and relabelling invariance."""

import argparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centauts import AbelianType, RunConfig, analyze_group, from_cayley_table, scan_corpus
from centauts.abelian import _type_exponents
from centauts.cli import _build_parser, main
from centauts.corpus import (
    CHECK_NAMES,
    CHECKS,
    PER_GROUP_CHECKS,
    catalog,
    catalog_group,
    report_to_json_dict,
)
from centauts.errors import ConfigError, InternalDisagreement, NotAGroup

from oracles import relabel


def _raise(exc):
    def runner(group, budget, report):
        raise exc

    return runner


class TestRegistry:
    def test_names_derive_from_registry(self):
        assert CHECK_NAMES == tuple(CHECKS)
        assert PER_GROUP_CHECKS == tuple(c for c, run in CHECKS.items() if run is not None)
        assert [c for c, run in CHECKS.items() if run is None] == ["lemma4"]

    def test_cli_check_choices_match_registry(self):
        parser = _build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

        def choices(command):
            action = next(a for a in commands.choices[command]._actions if a.dest == "check")
            return tuple(action.choices)

        assert choices("analyze") == PER_GROUP_CHECKS
        assert choices("scan") == CHECK_NAMES

    def test_unknown_check_raises(self, groups):
        with pytest.raises(ConfigError, match="bogus"):
            analyze_group(groups["D8"], ("theorem", "bogus"))

    def test_lemma4_is_skipped_per_group(self, groups):
        assert analyze_group(groups["D8"], ("lemma4",)).lemma_checks == {}


class TestCheckErrors:
    @pytest.mark.parametrize("exc", [InternalDisagreement("routes differ"), NotAGroup("bad table")])
    def test_library_error_becomes_error_verdict(self, monkeypatch, groups, exc):
        monkeypatch.setitem(CHECKS, "cor1", _raise(exc))
        report = analyze_group(groups["D8"], ("theorem", "cor1", "attar"))
        assert report.lemma_checks == {"theorem": "pass", "cor1": "error", "attar": "pass"}
        assert report.verdict == "error"
        assert report.error == f"cor1: {exc}"

    def test_scan_continues_past_a_failing_check(self, monkeypatch):
        monkeypatch.setitem(CHECKS, "cor1", _raise(InternalDisagreement("routes differ")))
        reports = scan_corpus(RunConfig(max_order=8, primes=(2,), checks=("cor1",)))
        assert [r.group_id for r in reports] == [
            name for name, make in catalog().items() if make().n <= 8 and make().p_group_prime() in (2, None)
        ]
        assert all(r.verdict == "error" for r in reports)

    def test_cli_exit_is_nonzero(self, monkeypatch, capsys):
        monkeypatch.setitem(CHECKS, "cor1", _raise(InternalDisagreement("routes differ")))
        assert main(["scan", "--max-order", "4", "--prime", "2", "--check", "cor1"]) == 1
        assert "cor1: routes differ" in capsys.readouterr().out


class TestAbelianTypes:
    @pytest.mark.parametrize("p", [2, 3])
    def test_partitions_up_to_ten(self, p):
        types = [AbelianType(p, tuple(filter(None, row))) for row in _type_exponents(10).tolist()]
        assert len(types) == 139
        assert len({t.exps for t in types}) == 139
        assert all(list(t.exps) == sorted(t.exps, reverse=True) for t in types)
        assert max(t.order for t in types) == p**10


SMALL = [name for name, make in catalog().items() if make().n <= 16]
_reference: dict[str, dict] = {}


def _invariant_part(report) -> dict:
    doc = report_to_json_dict(report)
    doc.pop("witness", None)  # element indices; only present on a counterexample
    return doc


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_analysis_is_invariant_under_relabelling(data):
    name = data.draw(st.sampled_from(SMALL), label="group")
    group = catalog_group(name)
    if name not in _reference:
        _reference[name] = _invariant_part(analyze_group(group, CHECK_NAMES))
    perm = data.draw(st.permutations(range(group.n)), label="relabelling")
    shuffled = from_cayley_table(relabel(group.mul.tolist(), perm), name=name)
    assert _invariant_part(analyze_group(shuffled, CHECK_NAMES)) == _reference[name]
