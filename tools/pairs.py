"""Alternating benchmark pairs of two revisions, summarized as ``BENCH_<label>.json``.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds X --trace 0``,
X being ``BENCHMARK.json``'s ``run_seconds``, once from a parent tree and
once from a change tree, the parent first on odd seeds and the change first
on even ones; seeds are the outer loop and workloads the inner one. Every
run is pinned to one CPU. Both trees are exported from committed revisions
with ``git archive`` into a temporary directory, the change's from
``--change`` (default ``HEAD``)::

    python tools/pairs.py --parent HEAD~1 --label NAME --first-seed 3101
    python tools/pairs.py --parent HEAD --label aa --pairs 5   # A/A

The file holds, per workload, each pair's records (the run's correctness,
attempted and failed counts, its reference check and its end-to-end
metrics) and, per end-to-end metric of ``BENCHMARK.json``, both sides'
medians and quartiles (linear interpolation), the change's wins, the
relative change of the medians, the parent's interquartile range, each
side's share of failed experiments and a ``verdict``. It is rewritten
after every pair, so a cut run keeps the pairs it finished. In A/A mode,
where both sides run the same code, the spreads show how far a metric
moves by chance alone.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(revision: str, dest: pathlib.Path) -> str:
    """Extract ``revision``'s tree into ``dest``; return its full commit id."""
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}").decode().strip()
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float, cpu: int) -> dict:
    """One untraced benchmark run from ``tree``: its pair record and its machine."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads((tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json")
                         .read_text(encoding="utf-8"))
    record = {"correct": line["correct"], "attempted": line["attempted"],
              "failed": line["failed"], "reference_check": results.get("reference_check", {}),
              **{name: metric["value"] for name, metric in line["metrics"].items()}}
    return {"record": record, "machine": results["machine"]}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(entry: dict, values: dict[str, list[float]]) -> str:
    """One metric's reading on one workload, from its ``summarize`` entry and both sides' runs.

    In this order:

    - "worse": the change failed a larger share of its experiments than the
      parent, whatever the metric reads;
    - "gain": the change won at least 9 in 10 of the pairs, ties counting
      for neither, and its median is better than the parent's by more than
      the parent's interquartile range;
    - "worse": the change's median is worse than the parent's by more than
      the metric's ``BENCHMARK.json`` bound, relative to the parent's;
    - "unresolved": either side's interquartile range, relative to the
      parent's median, is wider than the bound, and not every run of the
      change is better than every run of the parent;
    - "no worse" otherwise.
    """
    if entry["failed_share"]["change"] > entry["failed_share"]["parent"]:
        return "worse"
    sign = 1 if entry["better"] == "higher" else -1
    parent, change = entry["parent"], entry["change"]
    shift = sign * (change["median"] - parent["median"])
    if 10 * entry["change_wins"] >= 9 * entry["pairs"] and shift > entry["parent_iqr"]:
        return "gain"
    allowed = entry["bound"] * abs(parent["median"])
    if -shift > allowed:
        return "worse"
    spread = max(side["q3"] - side["q1"] for side in (parent, change))
    all_better = min(sign * c for c in values["change"]) > max(sign * p for p in values["parent"])
    return "unresolved" if spread > allowed and not all_better else "no worse"


def failed_share(pairs: list[dict], side: str) -> float:
    """The share of one side's experiments that failed, over all its runs."""
    attempted = sum(pair[side]["attempted"] for pair in pairs)
    return sum(pair[side]["failed"] for pair in pairs) / attempted if attempted else 0.0


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' quartiles, the change's wins, the shift, a verdict."""
    summary = {}
    failed = {side: failed_share(pairs, side) for side in SIDES}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        stats = {side: (quartiles(values[side]) if len(pairs) > 1
                        else dict.fromkeys(("median", "q1", "q3"), values[side][0]))
                 for side in SIDES}
        entry = summary[name] = {
            "better": metric["better"], "bound": metric["bound"], **stats,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(*values.values())),
            "pairs": len(pairs),
            "median_change_rel": stats["change"]["median"] / stats["parent"]["median"] - 1,
            "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            "failed_share": failed,
        }
        entry["verdict"] = verdict(entry, values)
    return summary


def table(result: dict) -> str:
    rows = ["workload  metric  parent median [q1, q3]  change median [q1, q3]  wins  change"
            "  verdict"]
    for workload, entry in result["workloads"].items():
        for name, s in entry["summary"].items():
            p, c = s["parent"], s["change"]
            rows.append(f"{workload}  {name}  {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                        f"  {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                        f"  {s['change_wins']}/{s['pairs']}  {s['median_change_rel']:+.2%}"
                        f"  {s['verdict']}")
    return "\n".join(rows)


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", default="HEAD", help="revision of the change side")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)),
                        help="CPU every run is pinned to (default: the highest available)")
    parser.add_argument("--what", default="", help="what the change does, for the file")
    args = parser.parse_args(argv)
    seconds = benchmark["run_seconds"]
    out = ROOT / f"BENCH_{args.label}.json"

    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        trees = {side: pathlib.Path(scratch, side) for side in SIDES}
        commits = {side: export(revision, trees[side])
                   for side, revision in zip(SIDES, (args.parent, args.change))}
        seeds = range(args.first_seed, args.first_seed + args.pairs)
        result = {
            "label": args.label, "what": args.what,
            "command": f"python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "protocol": f"pairs of runs at one seed, parent first on odd seeds and change "
                        f"first on even seeds, seed outer and workload inner; each side ran "
                        f"from its own directory holding that revision's files, pinned to CPU "
                        f"{args.cpu}; seeds {seeds[0]}-{seeds[-1]}; written by tools/pairs.py",
            "commits": commits, "machine": None,
            "workloads": {w: {"summary": {}, "pairs": [], "all_correct": True}
                          for w in args.workloads},
        }
        for seed in seeds:
            for workload in args.workloads:
                order = SIDES if seed % 2 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    run = run_once(trees[side], workload, seed, seconds, args.cpu)
                    pair[side] = run["record"]
                    result["machine"] = result["machine"] or {
                        k: v for k, v in run["machine"].items() if k != "commit"}
                entry = result["workloads"][workload]
                entry["pairs"].append(pair)
                entry["all_correct"] &= pair["parent"]["correct"] and pair["change"]["correct"]
                entry["summary"] = summarize(entry["pairs"], benchmark["end_to_end"])
                out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
                print(f"seed {seed} {workload}: " + ", ".join(
                    f"{side} {pair[side]['trials_per_s']:.4g} trials/s" for side in SIDES),
                    flush=True)
    print(table(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
