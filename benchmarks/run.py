"""The centauts benchmark: runs workloads, checks their outputs, prints metrics.

    python3 benchmarks/run.py --workload catalog-cold --seed 1 --seconds 15 --trace 0

Without ``--workload`` every workload runs in turn.  With ``--trace 0`` a run
reports the end-to-end metrics and with ``--trace 1`` the per-layer metrics;
the last line of each run is ``{"correct", "attempted", "failed", "metrics"}``
and the exit code is nonzero when any check failed.  Workloads, metrics and
isolation are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "centauts"
WORK = ROOT / ".bench_build" / "benchmarks"
WORKER = HERE / "worker.py"
RUN_LIMIT_S = 170.0
SETUP_PROBES = 9
# Imports exactly what a user's process imports before its first call.
PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import numpy, centauts; print('ready')"

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def child_env() -> dict[str, str]:
    """The environment of every child: no cache override, one numpy thread."""
    env = dict(os.environ)
    env.pop("CENTAUTS_CACHE_DIR", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def warm_cache(env: dict[str, str], timeout: float) -> Path:
    """A cache filled by one cold scan of this source tree, built once per checkout."""
    target = WORK / f"warm-cache-{source_digest()}"
    if not target.is_dir():
        staging = Path(tempfile.mkdtemp(dir=WORK, prefix="warm-staging-"))
        try:
            subprocess.run([sys.executable, str(WORKER), "--prefill", str(staging)],
                           env=env, check=True, timeout=timeout)
            os.rename(staging, target)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    return target


def setup_time(env: dict[str, str]) -> float:
    """Median time from process start until the program and numpy are imported."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE, str(ROOT / "src")], env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return statistics.median(samples)


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> int:
    """Run one workload, print its metrics and result line; the exit code."""
    started = perf_counter()
    env = child_env()
    WORK.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
    try:
        cmd = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--scratch", str(scratch),
               "--spans", str(WORK / f"spans-{workload}.json.gz")]
        if workload == "catalog-warm":
            cmd += ["--warm-cache", str(warm_cache(env, RUN_LIMIT_S))]
        setup_s = setup_time(env) if not trace else None
        remaining = RUN_LIMIT_S - (perf_counter() - started)
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 2
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {workload}: {WORKLOADS[workload]}")
    print(f"seed {seed}, {seconds} s, trace {trace}; nproc {os.cpu_count()}, "
          f"python {res['python']}, numpy {res['numpy']}")
    print("inputs " + json.dumps(res["inputs"]))
    if trace:
        units = PER_LAYER
        values = {name: res["metrics"].get(name, 0) for name in units}
        print(f"traced passes {res['passes']}")
    else:
        units = END_TO_END
        values = {"wall_s": res["wall_s"], "setup_s": setup_s, "peak_rss_mb": res["peak_rss_mb"]}
        print(f"cycles {len(res['cycles'])}: " + " ".join(f"{c:.4f}" for c in res["cycles"]))
        lat = res.get("group_latency_ms")
        if lat:
            print(f"group_p50_ms {statistics.median(lat):.3f} ms, "
                  f"group_p75_ms {percentile(lat, 75):.3f} ms (n={len(lat)})")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(f"fail_ratio {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} operations)")
    for message in res["messages"]:
        print(f"FAILED: {message}")
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }), flush=True)
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no centauts sources at {PACKAGE}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    return max(run_workload(w, args.seed, args.seconds, args.trace) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
