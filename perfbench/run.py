"""Benchmark of the pseudoknots library, measured from outside the program.

Runs one workload (or all of them) and prints a report followed, as the
last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json;
with `--trace 1` they are its per-layer metrics, taken from a separate
traced round whose overhead is reported.  Every op is checked against
frozen references; a failed check counts toward `failed`.

    python3 perfbench/run.py --workload wereset-large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

Run it from anywhere; it benchmarks the `src/` of the checkout it sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("wereset-large", "census-small", "invariant-scramble")
BASELINE_SEED = 1
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
RUN_LIMIT_S = 175.0

# A fresh interpreter imports the library and loads the bundled knot table,
# which every CLI call pays, then prints the monotonic clock.
SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import pseudoknots\n"
    "pseudoknots.load_table()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PSEUDOKNOTS_TABLE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to a loaded knot table,
    scaled to the reference machine speed like op times."""
    probe = SpeedProbe()
    times = []
    for _ in range(repeats):
        probe.begin()
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()}")
        _, speed = probe.end()
        times.append((float(proc.stdout.split()[-1]) - start) * speed)
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: no result within the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it; None when that percentile would not lie above the median."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return None
    index = n - TAIL_BEYOND - 1
    return sorted(samples)[index], 100.0 * (index + 1) / n


def end_to_end(raw: dict, setup: list[float]) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics, and report lines for those that apply only
    to some workloads.  An op's time is the median of its speed-scaled runs
    (see worker.py and workloads.SpeedProbe)."""
    ops = raw["op_s"]
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ops) / (sum(ops) + raw["other_s"]),
        "op_p50_ms": 1000.0 * statistics.median(ops),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    extra = [f"  {len(ops)} ops, each run {len(raw['rounds_s'])} times in "
             f"{sum(raw['rounds_s']):.2f} s; set-up runs {len(setup)}"]
    t = tail(ops)
    if t is None:
        extra.append(f"  op_tail_ms omitted: {len(ops)} ops, fewer than {2 * TAIL_BEYOND}")
    else:
        extra.append(f"  op_tail_ms = {1000.0 * t[0]:.3f} ms "
                     f"(p{t[1]:.1f} of {len(ops)} ops, {TAIL_BEYOND} beyond)")
    if raw["resolutions"]:
        extra.append(f"  resolutions_per_s = {raw['resolutions'] / raw['wereset_s']:.1f} 1/s "
                     f"({raw['resolutions']} resolutions in {raw['wereset_s']:.2f} s "
                     "of were-set calls, all runs)")
    return metrics, extra


def per_layer(raw: dict) -> tuple[dict[str, float], list[str]]:
    layers = raw["layers"]
    extra = [f"  traced round {raw['traced_round_s']:.3f} s, untraced round "
             f"{raw['traced_round_s'] - layers['trace.overhead_s']:.3f} s; "
             f"spans written to {raw['trace_file']}"]
    if layers["wereset.span_s"]:
        extra.append(f"  wereset span {layers['wereset.span_s']:.6f} s = self "
                     f"{layers['wereset.self_s']:.6f} s + wrapped children "
                     f"{raw['wereset_children_s']:.6f} s")
    return layers, extra


def measure(workload: str, seed: int, seconds: float, trace: int, spec: dict,
            deadline: float) -> tuple[dict, list[str], int, int]:
    setup = [] if trace else measure_setup(SETUP_REPEATS)
    raw = run_worker(workload, seed, seconds, trace, deadline)
    values, extra = per_layer(raw) if trace else end_to_end(raw, setup)
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    failed_frac = raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0
    lines = [f"{workload} (seed {seed}, {'traced' if trace else 'untraced'})"]
    lines += [f"  {name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines += extra
    lines.append(f"  failed_frac = {failed_frac!r} ({raw['failed']} of {raw['attempted']} ops)")
    if workload == "census-small":
        lines.append(f"  census pairs per round = {raw['pairs_per_round']:g}")
    lines += [f"  FAILED {msg}" for msg in raw["messages"]]
    return metrics, lines, raw["attempted"], raw["failed"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "pseudoknots" / "__init__.py").is_file():
        print(f"error: no pseudoknots sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    metrics: dict = {}
    attempted = failed = 0
    try:
        for name in names:
            got, lines, a, f = measure(name, args.seed, seconds, args.trace, spec, deadline)
            print("\n".join(lines), flush=True)
            attempted += a
            failed += f
            if len(names) == 1:
                metrics = got
            else:
                metrics.update({f"{name}/{k}": v for k, v in got.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
