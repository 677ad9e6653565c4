"""One benchmark run of one workload, in its own process; started by run.py.

Prints one JSON line with the timings, counters and correctness tally.
``--prefill DIR`` instead fills a cache directory with one cold catalog scan.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import centauts  # noqa: E402
from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "catalog_scan.json"
REFERENCE_SHA256 = "c3b86a41df7ae0ab059ac8577257169388c5d472b7eeb4736e62432e47568ebf"
MAX_ORDER = 81
PRIMES = (2, 3)
SWEEP_MAX_EXP = 10
SWEEP_TRIPLES = 115231  # per prime at max_exp 10
RELABELLINGS = 2  # relabellings of the catalog per cycle of the relabelled workload
CSV_COLUMNS = (
    "groupId", "check", "order", "prime", "class", "rEqS", "residualIso", "expEq",
    "all", "autcentOrder", "autZZOrder", "innOrder", "verdict",
)


def load_reference() -> tuple[str, dict]:
    text = REFERENCE.read_text(encoding="utf-8")
    if hashlib.sha256(text.encode("utf-8")).hexdigest() != REFERENCE_SHA256:
        raise SystemExit(f"{REFERENCE} does not match its recorded digest")
    return text, json.loads(text)


def scan_config(cache_dir: Path) -> centauts.RunConfig:
    return centauts.RunConfig(max_order=MAX_ORDER, primes=PRIMES, cache_dir=str(cache_dir))


def cache_state(cache_dir: Path) -> dict[str, tuple[int, int]]:
    """Inode and mtime of each cache file; a rewritten file gets new ones."""
    return {path.name: (st.st_ino, st.st_mtime_ns)
            for path in cache_dir.glob("*.json") for st in [path.stat()]}


class Tally:
    """Operations attempted and failed; an operation fails on a bad verdict
    or on an output that differs from the reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


# -- workloads ---------------------------------------------------------------
#
# A workload is a cycle of passes over fixed inputs.  ``run(input)`` is the
# timed part and returns its outputs; ``check(output, tally)`` is untimed and
# returns what a scan left in its cache directory, which only the trace reports.


class Scan:
    """catalog-cold (empty cache per pass) and catalog-warm (pre-filled cache)."""

    def __init__(self, scratch: Path, warm_cache: Path | None) -> None:
        self.ref_text, ref = load_reference()
        self.ref_reports = [json.dumps(r, sort_keys=True) for r in ref["reports"]]
        self.scratch = scratch
        self.passes = 0
        self.warm = None
        if warm_cache is not None:
            self.warm = scratch / "warm-cache"
            shutil.copytree(warm_cache, self.warm)
        self.warm_state = cache_state(self.warm) if self.warm else {}
        self.cycle = [None]
        groups = [r for r in ref["reports"] if not r["groupId"].startswith("lemma4-")]
        self.inputs = {"groups": len(groups), "sum_order": sum(r["order"] for r in groups)}

    def run(self, _):
        self.passes += 1
        cache_dir = self.warm or self.scratch / f"cold-{self.passes}"
        reports = centauts.scan_corpus(scan_config(cache_dir))
        return reports, centauts.emit_report(reports, "json"), cache_dir

    def check(self, output, tally: Tally) -> dict:
        reports, text, cache_dir = output
        tally.record(text == self.ref_text, "scan report differs from the reference")
        emitted = json.loads(text)["reports"]
        for k, (report, doc) in enumerate(zip(reports, emitted)):
            ok = report.verdict == "agree" and (
                k < len(self.ref_reports) and json.dumps(doc, sort_keys=True) == self.ref_reports[k]
            )
            tally.record(ok, f"report {report.group_id}: verdict {report.verdict} or content differs")
        for _ in range(len(reports), len(self.ref_reports)):
            tally.record(False, "scan returned fewer reports than the reference")
        state = cache_state(cache_dir)
        writes = sum(1 for name, stat in state.items() if self.warm_state.get(name) != stat)
        # A warm scan reads every group from the cache; a cold one writes each once.
        expected = 0 if self.warm else self.inputs["groups"]
        tally.record(writes == expected, f"scan wrote {writes} cache files, expected {expected}")
        if self.warm is None:
            shutil.rmtree(cache_dir, ignore_errors=True)
        else:
            self.warm_state = state
        return {"scan_reports": len(reports), "cache_writes": writes}


def relabel(table: list[list[int]], perm: list[int]) -> list[list[int]]:
    """The table of the same group with element x renamed perm[x]."""
    n = len(table)
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x
    return [[perm[table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]


def _csv_cell(value) -> str:
    return "" if value is None else str(value)


def expected_rows(report: dict) -> list[str]:
    """CSV rows of one reference report, built from the reference JSON."""
    cond = report["conditionSide"] or {}
    orc = report["oracleSide"] or {}
    rows = []
    for check, verdict in sorted(report["lemmaChecks"].items()):
        row = {
            "groupId": report["groupId"], "check": check, "order": report["order"],
            "prime": report["prime"], "class": report["class"], "verdict": verdict,
        }
        row.update({k: cond.get(k) for k in ("rEqS", "residualIso", "expEq", "all")})
        row.update({k: orc.get(k) for k in ("autcentOrder", "autZZOrder", "innOrder")})
        rows.append(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS))
    return rows


class Relabelled:
    """Each in-bound catalog p-group as a cayley file with shuffled element
    indices; reports must equal the catalog group's, which are invariant."""

    def __init__(self, seed: int) -> None:
        _, ref = load_reference()
        by_id = {r["groupId"]: r for r in ref["reports"]}
        rng = random.Random(seed)
        tables = []
        for name, make in centauts.catalog().items():
            group = make()
            if group.n <= MAX_ORDER and group.p_group_prime() in PRIMES:
                tables.append((name, group.mul.tolist()))
        self.expected = {name: expected_rows(by_id[name]) for name, _ in tables}
        self.cycle = []
        for _ in range(RELABELLINGS):
            texts = []
            for name, table in tables:
                perm = list(range(len(table)))
                rng.shuffle(perm)
                doc = {"name": name, "format": "cayley", "n": len(table),
                       "table": relabel(table, perm)}
                texts.append(json.dumps(doc))
            self.cycle.append(texts)
        self.inputs = {
            "groups": len(tables), "sum_order": sum(len(t) for _, t in tables),
            "seed": seed, "relabellings": RELABELLINGS,
        }
        self.latencies_ms: list[float] = []

    def run(self, texts):
        reports = []
        latencies = []
        for text in texts:
            t0 = perf_counter()
            group = centauts.parse_group_text(text)
            reports.append(centauts.analyze_group(group, centauts.CHECK_NAMES))
            latencies.append(perf_counter() - t0)
        return reports, centauts.emit_report(reports, "csv"), latencies

    def check(self, output, tally: Tally) -> dict:
        reports, text, latencies = output
        self.latencies_ms.extend(1000.0 * t for t in latencies)
        lines = text.splitlines()
        tally.record(lines[:1] == [",".join(CSV_COLUMNS)], "CSV header differs")
        rows: dict[str, list[str]] = {}
        for line in lines[1:]:
            rows.setdefault(line.split(",", 1)[0], []).append(line)
        for report in reports:
            name = report.group_id
            same = rows.get(name) == self.expected.get(name)
            tally.record(report.verdict == "agree" and same,
                         f"relabelled {name}: verdict {report.verdict}, rows match {same}")
        for name in self.expected.keys() - {r.group_id for r in reports}:
            tally.record(False, f"relabelled {name}: no report")
        return {}


class HomSweep:
    """The Hom-growth sweep of lemma 4 for each prime."""

    def __init__(self) -> None:
        self.cycle = [None]
        self.inputs = {"groups": 0, "sum_order": 0, "primes": PRIMES, "max_exp": SWEEP_MAX_EXP}

    def run(self, _):
        return [centauts.verify_lemma4_sweep(p, SWEEP_MAX_EXP) for p in PRIMES]

    def check(self, sweeps, tally: Tally) -> dict:
        for sweep in sweeps:
            tally.record(
                sweep.agree and sweep.triples_checked == SWEEP_TRIPLES,
                f"sweep p={sweep.prime}: agree={sweep.agree}, {sweep.triples_checked} triples",
            )
        return {}


def make_workload(name: str, seed: int, scratch: Path, warm_cache: Path | None):
    if name == "catalog-cold":
        return Scan(scratch, None)
    if name == "catalog-warm":
        return Scan(scratch, warm_cache)
    if name == "relabelled":
        return Relabelled(seed)
    if name == "hom-sweep":
        return HomSweep()
    raise SystemExit(f"unknown workload {name!r}")


# -- measurement ---------------------------------------------------------------


def attempt(tally: Tally, what: str, fn, *args):
    """``fn(*args)``, or None with a failed operation when the program raises."""
    try:
        return fn(*args)
    except Exception as exc:  # e.g. InternalDisagreement from a two-way cross-check
        tally.record(False, f"{what} raised {exc!r}")
        return None


def timed(workload, inp, tally: Tally):
    t0 = perf_counter()
    out = attempt(tally, "pass", workload.run, inp)
    return perf_counter() - t0, out


def checked(workload, out, tally: Tally) -> dict:
    if out is None:
        return {}
    return attempt(tally, "check", workload.check, out, tally) or {}


def measure(workload, seconds: float, tally: Tally) -> list[float]:
    """Whole cycles until ``seconds`` have passed; mean pass time per cycle."""
    cycles = []
    start = perf_counter()
    while not cycles or perf_counter() - start < seconds:
        times = []
        for inp in workload.cycle:
            wall, out = timed(workload, inp, tally)
            checked(workload, out, tally)
            times.append(wall)
        cycles.append(sum(times) / len(times))
    return cycles


def measure_traced(workload, seconds: float, tally: Tally, spans_path: Path) -> dict:
    """Pairs of an untraced and a traced pass over the first input of the cycle."""
    tracer = Tracer()
    plain = traced = 0.0
    passes = 0
    scan_reports = cache_writes = 0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        wall, out = timed(workload, workload.cycle[0], tally)
        checked(workload, out, tally)
        plain += wall
        with tracer:
            wall, out = timed(workload, workload.cycle[0], tally)
        traced += wall
        extra = checked(workload, out, tally)
        scan_reports += extra.get("scan_reports", 0)
        cache_writes += extra.get("cache_writes", 0)
        passes += 1
    tracer.write(spans_path)

    totals = tracer.layer_metrics()
    if scan_reports:
        # A scan report that neither analyze_group nor the sweep produced came from the cache.
        made = tracer.calls("corpus.analyze_group") + tracer.calls("theory.verify_lemma4_sweep")
        totals["corpus.cache_hits"] = scan_reports - made
    totals["corpus.cache_writes"] = cache_writes
    metrics = {name: value / passes for name, value in totals.items()}
    examined = totals.get("automorphisms.filter_examined", 0)
    metrics["automorphisms.filter_yield"] = (
        totals.get("automorphisms.filter_kept", 0) / examined if examined else 0.0
    )
    metrics["trace.overhead"] = traced / plain
    return {"passes": passes, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prefill", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path)
    parser.add_argument("--warm-cache", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    if not Path(centauts.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported centauts from {centauts.__file__}, not from {ROOT / 'src'}")
    if args.prefill is not None:
        centauts.scan_corpus(scan_config(args.prefill))
        return 0

    workload = make_workload(args.workload, args.seed, args.scratch, args.warm_cache)
    tally = Tally()
    result = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "inputs": workload.inputs,
    }
    if args.trace:
        result.update(measure_traced(workload, args.seconds, tally, args.spans))
    else:
        cycles = measure(workload, args.seconds, tally)
        result["cycles"] = cycles
        result["wall_s"] = statistics.median(cycles)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if isinstance(workload, Relabelled):
            result["group_latency_ms"] = workload.latencies_ms
    result.update(attempted=tally.attempted, failed=tally.failed, messages=tally.messages)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
