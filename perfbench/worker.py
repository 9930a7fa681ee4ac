"""Runs one workload in its own single-threaded process.

Imports `pseudoknots` from the checkout's `src/`, generates the workload's
inputs from the seed, then repeats rounds over those inputs at least
REPEATS times and until `--seconds` have passed, always finishing the
round in progress.  With `--trace 1` it then runs one more round with the
timing wrappers of `tracing.py` installed.  Prints the raw measurements as
one JSON line; `run.py` turns them into metrics.

    python3 perfbench/worker.py --workload census-small --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, SpeedProbe, Tally, library_modules

# Every op runs at least this many times, one round apart; the median of
# its speed-scaled times counts.
REPEATS = 3

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import pseudoknots

    if Path(pseudoknots.__file__).resolve().parent != SRC / "pseudoknots":
        print(f"error: imported pseudoknots from {pseudoknots.__file__}, not {SRC}", file=sys.stderr)
        return 2
    pk = library_modules()
    reference = json.loads((HERE / "reference.json").read_text())
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        workload = WORKLOADS[args.workload](pk, args.seed, Path(tmp), reference)
        workload.prepare()

        probe = SpeedProbe()
        tally = Tally(probe)
        rounds: list[float] = []
        scaled_rounds: list[float] = []
        begin = time.perf_counter()
        with probe.sampling():
            while len(rounds) < REPEATS or time.perf_counter() - begin < args.seconds:
                start, scaled_start = time.perf_counter(), tally.scaled_total
                workload.run_round(tally)
                rounds.append(time.perf_counter() - start)
                scaled_rounds.append(tally.scaled_total - scaled_start)
        result = {
            "rounds_s": rounds,
            "op_s": [statistics.median(t) for t in tally.op_seconds.values()],
            "other_s": sum(statistics.median(t) for t in tally.other_seconds.values()),
            "attempted": tally.attempted,
            "failed": tally.failed,
            "resolutions": tally.resolutions,
            "wereset_s": tally.wereset_seconds,
            "pairs_per_round": tally.pairs / len(rounds),
            "messages": tally.messages,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

        if args.trace:
            tracer = Tracer()
            traced = Tally(probe)
            traced.tracer = tracer
            with probe.sampling(), tracer.installed(pk):
                traced.begin("setup")
                pk.tables.load_table()
                traced.end()
                setup_s = traced.scaled_total
                workload.run_round(traced)
                traced_s = traced.scaled_total - setup_s
            untraced_s = statistics.median(scaled_rounds)
            layers = tracer.layer_metrics()
            layers["trace.overhead_s"] = traced_s - untraced_s
            layers["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
            result["layers"] = layers
            result["wereset_children_s"] = tracer.child_sum("wereset.wereset")
            result["traced_round_s"] = traced_s
            result["attempted"] += traced.attempted
            result["failed"] += traced.failed
            result["messages"] += traced.messages
            trace_path = ROOT / ".perfbench-out" / f"trace-{args.workload}-seed{args.seed}.tsv"
            tracer.write(trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
