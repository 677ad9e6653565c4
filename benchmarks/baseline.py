"""Run the benchmark over several seeds and summarise its steadiness.

    python3 benchmarks/baseline.py --out benchmarks/baseline.json

For every workload in BENCHMARK.json this makes ten untraced runs, one per
seed, and one traced run, then records per end-to-end metric the values,
their median and quartiles (``statistics.quantiles(n=4)``) and the quartile
spread as a share of the median, next to the metric's bound.  The traced run
supplies the per-layer metrics and the input descriptors Σ|Aut| and
Σ|Autcent|; catalog-warm scans the same groups as catalog-cold but searches
none, so it takes them from catalog-cold.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the input descriptors of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}")
    inputs = next(json.loads(line[len("inputs "):]) for line in lines if line.startswith("inputs "))
    return result, inputs


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    doc = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "processor": platform.processor() or platform.machine(),
        },
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run(workload, seed, seconds, 0)[0] for seed in seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for r in results], bound)
                for name, bound in bounds.items()
            },
        }
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:13s} {name:12s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.2%} (bound {stats['bound']:.0%})", flush=True)
        if not args.no_trace:
            traced, inputs = run(workload, seeds[0], seconds, 1)
            layers = {name: m["value"] for name, m in traced["metrics"].items()}
            entry["per_layer"] = layers
            if workload == "catalog-warm":
                layers = doc["workloads"]["catalog-cold"]["per_layer"]
            aut = layers["automorphisms.aut_found"]
            autcent = layers["automorphisms.autcent_found"]
            entry["inputs"] = dict(
                inputs, sum_aut=aut, sum_autcent=autcent,
                autcent_share=autcent / aut if aut else None,
            )
        doc["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
