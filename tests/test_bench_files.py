"""The benchmark history at the repository root.

Each `BENCH_<pr>.json` records a change's benchmark runs: the commit it
measured and that commit's parent, the seeds and the Python version, and
the final JSON line of `perfbench/run.py` for both sides of each
alternating pair, untraced and traced.  It also names the traced metrics
that read 0, or near 0, by construction, so that no reader takes them for
a stage of the library.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KEYS = {"commit", "parent", "seeds", "python", "pairs", "zero_by_construction"}
PAIR_KEYS = {"workload", "seed", "trace", "parent", "commit"}
# traced metrics that read 0 or near 0 whatever the library does
ZERO_BY_CONSTRUCTION = {
    "bracket.smoothing_loops_s",
    "bracket.smoothing_loops_calls",
    "laurent.polys_created",
    "moves.site_search_s",
}


def test_every_bench_file_holds_its_keys():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text())
        assert KEYS <= set(bench), path.name
        for side in ("commit", "parent"):
            assert re.fullmatch("[0-9a-f]{40}", bench[side]), (path.name, side)
        assert re.fullmatch(r"3\.[0-9]+\.[0-9]+", bench["python"]), path.name
        assert ZERO_BY_CONSTRUCTION <= set(bench["zero_by_construction"]), path.name
        assert all(bench["zero_by_construction"].values()), path.name  # each with its reason
        assert {pair["trace"] for pair in bench["pairs"]} == {0, 1}, path.name
        for pair in bench["pairs"]:
            assert PAIR_KEYS <= set(pair), (path.name, pair)
            assert pair["seed"] in bench["seeds"], (path.name, pair)
            for side in ("parent", "commit"):
                line = pair[side]
                assert {"correct", "attempted", "failed", "metrics"} <= set(line), (path.name, pair)
                assert "ops_per_s" in line["metrics"] or pair["trace"], (path.name, pair)
