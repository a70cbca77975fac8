"""Steadiness tool: run one workload N times and print each metric's spread.

Usage::

    python3 perfbench/steady.py --workload serve --runs 10
    python3 perfbench/steady.py --workload evolve --runs 3 --trace
    python3 perfbench/steady.py --workload ingest --runs 3 --same-seed 7
    python3 perfbench/steady.py --workload evolve --runs 10 --sets 2

Every run is a fresh interpreter with ``PYTHONHASHSEED=0`` and its own
``--seed`` (1, 2, ... unless ``--same-seed`` pins one).  For each
end-to-end metric the tool prints the median, the quartiles (the rule
``statistics.quantiles(values, n=4)`` uses), the spread (Q3 - Q1) /
median and the metric's bound from ``BENCHMARK.json``.  With
``--trace`` it also makes as many traced runs and prints the per-layer
medians, the tracing overhead (traced end-to-end median against the
untraced one) and the add-up check of README.md.  With ``--same-seed``
it reports which values came out bit-identical in every run.  With
``--sets 2`` it makes a second set of runs on the next seeds (11-20 after
1-10) and prints, per metric, how far the second median moved from the
first in the worse direction, against the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from stats import median, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: README's add-up tolerances: the lowest and highest ratio of the traced
#: layers' sum to the untraced timing.  Serving leaves asyncio scheduling
#: and socket calls outside every wrapper, 10-30 % of its wall time on
#: the reference machine; maintenance is one wrapped call tree.
ADDUP_BOUNDS = {
    "serving ms/request": (0.65, 1.25),
    "maintenance ms/day": (0.75, 1.25),
}


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Return (detail line, result line) of one fresh-interpreter run."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run {cmd} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run {cmd} reported wrong answers")
    return detail, result


def summarize(runs: list[dict], bounds: dict[str, float], verbose: bool) -> bool:
    """Print one row per metric; return True if every spread is steady."""
    steady = True
    names = list(runs[0]["metrics"])
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, mid, q3 = quartiles(values) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(name)
        flag = ""
        # Spread between seeds is held to a third of the bound.  Set-up
        # time is gated only on its median moving between two sets of
        # runs (--sets 2), not on its spread, so its spread is held to
        # the whole bound.
        limit = None if bound is None else bound if name == "setup_s" else bound / 3
        if limit is not None and spread > limit:
            flag = f"  > {'bound' if name == 'setup_s' else 'bound/3'}"
            steady = False
        print(
            f"{name:28} {mid:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
            f"{'' if bound is None else bound:>6}{flag}"
        )
        if verbose:
            print("    runs: " + " ".join(f"{v:.6g}" for v in values))
    return steady


def compare(sets: list[list[dict]], config: dict) -> bool:
    """Print how far each median moved from the first set; True if in bound."""
    ok = True
    print("\nsecond set against first: median change in the worse direction")
    shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
    same_share = all(s == shares[0] and len(s) == 1 for s in shares)
    ok = ok and same_share
    print(f"  failed share per set {shares}: {'same' if same_share else 'DIFFERS'}")
    for m in config["end_to_end"]:
        name, bound = m["name"], m["bound"]
        first = median([r["metrics"][name]["value"] for r in sets[0]])
        for later in sets[1:]:
            second = median([r["metrics"][name]["value"] for r in later])
            worse = (second - first) / first
            if m["better"] == "higher":
                worse = -worse
            inside = worse <= bound
            ok = ok and inside
            print(
                f"  {name:24} {first:14.6g} -> {second:14.6g}  "
                f"worse by {worse:+7.3f} (bound {bound}): "
                f"{'ok' if inside else 'OUTSIDE'}"
            )
    return ok


def exact(runs: list[dict]) -> None:
    """Print which metrics repeated bit-for-bit in every run."""
    same, differ = [], []
    for name in runs[0]["metrics"]:
        values = {r["metrics"][name]["value"] for r in runs}
        (same if len(values) == 1 else differ).append(name)
    print(f"bit-identical in every run: {', '.join(same) or '-'}")
    print(f"varied between runs:        {', '.join(differ) or '-'}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", type=int, default=None)
    parser.add_argument("--sets", type=int, default=1, help="sets of --runs runs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    steady = True
    sets, seed_sets = [], []
    for k in range(args.sets):
        seeds = [
            args.same_seed
            if args.same_seed is not None
            else args.first_seed + k * args.runs + i
            for i in range(args.runs)
        ]
        plain = [run_once(args.workload, s, seconds, False) for s in seeds]
        results = [r for _d, r in plain]
        sets.append(results)
        seed_sets.append(seeds)
        print(f"workload {args.workload}, {args.runs} runs of {seconds} s, seeds {seeds}")
        failed = {r["failed"] / r["attempted"] for r in results}
        print(f"attempted {[r['attempted'] for r in results]}, failed share {sorted(failed)}")
        steady = summarize(results, bounds, args.verbose) and steady
    if len(sets) > 1:
        steady = compare(sets, config) and steady
    results, seeds = sets[0], seed_sets[0]
    if args.same_seed is not None:
        exact(results)
    if args.trace:
        traced = [run_once(args.workload, s, seconds, True) for s in seeds]
        print("\nper-layer metrics (traced runs)")
        summarize([r for _d, r in traced], {}, args.verbose)
        if args.same_seed is not None:
            exact([r for _d, r in traced])
        print("\ntracing overhead: traced median / untraced median")
        for name in ("rps", "probe_p50_ms", "scan_p50_ms", "maint_ms_per_day"):
            off = median([r["metrics"][name]["value"] for r in results])
            on = median([d["traced_end_to_end"][name] for d, _r in traced])
            print(f"  {name:20} {on / off:6.3f}")
        print("\nadd-up check: traced layers' sum / untraced timing")
        checks = [
            (
                "serving ms/request",
                median([d["add_up"]["serve_layers_ms_per_request"] for d, _r in traced]),
                1e3 / median([r["metrics"]["rps"]["value"] for r in results]),
            ),
            (
                "maintenance ms/day",
                median([d["add_up"]["maint_layers_ms_per_day"] for d, _r in traced]),
                median([r["metrics"]["maint_ms_per_day"]["value"] for r in results]),
            ),
        ]
        for label, layers, e2e in checks:
            low, high = ADDUP_BOUNDS[label]
            ok = low <= layers / e2e <= high
            steady = steady and ok
            print(
                f"  {label:20} layers {layers:10.4f}  untraced {e2e:10.4f}  "
                f"ratio {layers / e2e:6.3f} in [{low}, {high}]: "
                f"{'ok' if ok else 'OUTSIDE'}"
            )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
