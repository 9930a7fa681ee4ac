"""Regenerates `reference.json`: the frozen outputs the correctness gate
checks every op against.

Run it only when the program's output is meant to change, and say so in
the change; a performance change must leave `reference.json` as it is.
Takes a few minutes on one core:

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import CensusSmall, WeresetLarge, code_key, library_modules, sha256, site_key  # noqa: E402


def freeze_wereset_large(pk) -> dict:
    """Stdout hash of every input the workload can draw, keyed by input hash."""
    placeholder = {"wereset_large": {"stdout_sha256": {}}}
    hashes = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        workload = WeresetLarge(pk, 0, Path(tmp), placeholder)
        workload.write_inputs(workload.pairs(pk, range(WeresetLarge.CONFIG_POOL)))
        outputs = []
        for item in workload.items:
            code, out = workload.run_cli(item["path"])
            if code != 0:
                raise SystemExit(f"{item['label']}: exit code {code}")
            if item["pre_index"] is not None and outputs[item["pre_index"]] != out:
                raise SystemExit(f"{item['label']}: were-set changed across the flype")
            outputs.append(out)
            hashes[item["input_sha256"]] = sha256(out)
            print(f"{item['label']}: {json.loads(out)['total']} resolutions", file=sys.stderr)
    return {"stdout_sha256": hashes}


def freeze_census(pk) -> dict:
    placeholder = {"census": {"sites_per_code": {}, "differing_sites": [], "pairs": 0}}
    census = CensusSmall(pk, 0, ROOT, placeholder)
    census.prepare()
    sites_per_code = {}
    differing = []
    for code, shadow in census.shadows:
        knot, sites, ws0, i0 = census.census_shadow(shadow)
        problem = census.shadow_problem(code, knot, ws0)
        if problem is not None:
            raise SystemExit(f"{code_key(code)}: {problem}")
        sites_per_code[code_key(code)] = len(sites)
        for site in sites:
            ws, i_form = census.census_site(shadow, site)
            if not pk.wereset.wereset_equal(ws0, ws):
                raise SystemExit(f"{site_key(code, site)}: were-set changed across the flype")
            if i_form != i0:
                differing.append(site_key(code, site))
    print(f"census: {len(census.shadows)} shadows, {sum(sites_per_code.values())} sites, "
          f"{len(differing)} pairs", file=sys.stderr)
    return {
        "crossings": CensusSmall.CROSSINGS,
        "max_tangle": CensusSmall.MAX_TANGLE,
        "pairs": len(differing),
        "sites_per_code": sites_per_code,
        "differing_sites": sorted(differing),
    }


def main() -> None:
    pk = library_modules()
    reference = {"census": freeze_census(pk), "wereset_large": freeze_wereset_large(pk)}
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
