"""Measure the benchmark's run-to-run spread and record it.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --seeds 1-10 [--sets 2] [--workloads stream,sharded] [--out perfbench/STEADINESS.json]

Runs ``perfbench/run.py`` once per workload and seed, one run at a
time, and reports for every end-to-end metric the median, quartiles
and quartile spread ((q3 - q1) / median) of the probe-normalised value
beside the raw seconds.  With ``--sets`` above 1 the same runs are
repeated as further sets, and each later set's medians are compared
with the first set's: ``movement`` is the relative change of the
median and ``worse`` the part of it in the metric's worse direction,
which must stay within the metric's bound.  With ``--out`` every set's
runs and table and the movements are written as JSON (the steadiness
record); the tables are printed either way.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402

#: Time metrics whose raw value the diagnostics line carries.
RAW = ("setup_s", "serve_s", "epoch_p50_ms", "epoch_p90_ms")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return {"diagnostics": json.loads(lines[-2])["diagnostics"],
            "result": json.loads(lines[-1])}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def table(runs: dict, bounds: dict) -> dict:
    out = {}
    for workload, rows in runs.items():
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in rows]
            q1, med, q3, spread = quartile_spread(values)
            entry = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bound, "within_third": spread < bound / 3}
            if name in RAW:
                raw = [r["diagnostics"]["raw"][name] for r in rows]
                rq1, rmed, rq3, rspread = quartile_spread(raw)
                entry["raw"] = {"median": rmed, "q1": rq1, "q3": rq3, "spread": rspread}
            out[f"{workload}/{name}"] = entry
    return out


def movement(first: dict, later: dict, better: dict) -> dict:
    """Per workload/metric: how far ``later``'s median moved from
    ``first``'s, relative to ``first``'s."""
    out = {}
    for key, entry in later.items():
        base = first[key]["median"]
        change = (entry["median"] - base) / base
        worse = change if better[key.split("/")[1]] == "lower" else -change
        out[key] = {"movement": change, "worse": max(0.0, worse),
                    "bound": entry["bound"], "within_bound": worse <= entry["bound"]}
    return out


def run_set(workloads: list, seeds: list, seconds: int, bounds: dict) -> dict:
    runs: dict[str, list] = {}
    for workload in workloads:
        for seed in seeds:
            result = run_once(workload, seed, seconds)
            runs.setdefault(workload, []).append(result)
            ok = result["result"]["correct"] and not result["result"]["failed"]
            print(f"{workload} seed {seed}: {'ok' if ok else 'FAILED'}", flush=True)
    rows = table(runs, bounds)
    for key, entry in rows.items():
        raw = entry.get("raw")
        raw_text = f"  raw spread {raw['spread']:.3f}" if raw else ""
        flag = "" if entry["within_third"] else "  <-- above bound/3"
        print(f"{key:28s} median {entry['median']:10.4f} spread {entry['spread']:.3f}"
              f" (bound {entry['bound']}){raw_text}{flag}")
    return {"table": rows, "runs": runs}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    workloads = args.workloads.split(",")
    sets, movements = [], []
    for number in range(1, args.sets + 1):
        print(f"-- set {number}", flush=True)
        sets.append(run_set(workloads, _seeds(args.seeds), config["run_seconds"], bounds))
        if number > 1:
            moved = movement(sets[0]["table"], sets[-1]["table"], better)
            movements.append(moved)
            for key, entry in moved.items():
                flag = "" if entry["within_bound"] else "  <-- worse than bound"
                print(f"{key:28s} set {number} median moved {entry['movement']:+.3f}{flag}")
    if args.out:
        record = {"sets": sets, "movement": movements}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
