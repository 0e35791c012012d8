"""Seeded certification benchmark for kscertify.

Usage (from the repository root)::

    python3 kscbench/run.py --workload numeric --seed 1 --seconds 25 --trace 0

The run generates its ``.ks`` inputs from the seed, computes the oracle
answers, measures set-up time, then starts ``worker.py`` in a fresh
interpreter that drives ``kscertify.cli.run_command`` in a closed loop (one
client, no threads) over the request list, pass after pass, for the given
seconds.  Afterwards every answer is checked against the oracles, and the last
line printed is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Request times are each request's fastest run
over a fixed number of timed passes per workload: the machine's speed varies
from second to second, and that only ever adds time.  With ``--trace 1`` the
first requests of the list run once untraced and once traced each, and the
metrics are the per-layer ones.

Workloads (each request uses its own seeded ray order, signed coordinate
permutation and ray signs):

* ``alpha``: certify requests on whole orderings of int3{0,+-1,+-2,+-4}
  (109 rays, 73 after pruning, alpha 42 against N 44), where the exact
  weighted independence number is about half of each request.
* ``large``: verify requests on whole sets of 121-289 rays; no alpha, so the
  exact graph build, basis enumeration and both coloring searches dominate.
* ``numeric``: certify requests on 70-100 % subsets of three 40-49 ray sets
  and, every third round, one ``large`` set as a verify request, all written
  with ``scalar numeric 1e-09``.  In the small requests re-parsing and
  rebuilding the graph in each of the five commands dominates, and the
  subsets mix KS and colorable verdicts; the float path of the same layers
  runs throughout.  A large set takes several times as long as a subset, so
  this mix gives the large sets a fair share of each pass while a pass stays
  short enough for the timed passes to fit in a run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
from worker import LAYERS  # noqa: E402

SMALL = ("int3{0,1,2}", "int4{0,1}", "q2_3{0,1,r2}")
ALPHA = ("int3{0,1,2,4}",)
LARGE = ("int3{0,1,2,3,4}", "int5{0,1}", "q2_3{0,1,r2,1+r2}")
SUBSET_SHARE = (0.7, 1.0)
TRIALS = 4
BUDGET_S = 60.0
SETUP_RUNS = 15

# workload -> (rounds, numeric?, number of requests in a traced run, timed
# passes).  The timed passes are no more than a 2-vCPU VM completes in 25 s
# at its slower times, so that the number of samples behind each request's
# fastest time does not depend on the program's speed.
WORKLOADS = {
    "alpha": (12, False, 4, 4),
    "large": (2, False, 3, 5),
    "numeric": (12, True, 13, 6),
}


def _round(workload: str, r: int) -> list[tuple[str, str, bool]]:
    """(family, request kind, subset?) of each request in round r."""
    small = [(family, "certify", True) for family in SMALL]
    if workload == "alpha":
        return [(family, "certify", False) for family in ALPHA]
    if workload == "large":
        return [(family, "verify", False) for family in LARGE]
    if r % 3 == 2:
        return small + [(LARGE[r // 3 % len(LARGE)], "verify", False)]
    return small


def build_plan(workload: str, seed: int, inputs: Path):
    """Write the workload's input files; return requests and expectations."""
    rounds, numeric, _, _ = WORKLOADS[workload]
    frozen = json.loads(oracle.FROZEN.read_text(encoding="utf-8"))
    requests, expected = [], []
    for r in range(rounds):
        for family, kind, subset in _round(workload, r):
            k = len(requests)
            rng = gen.rng_for(workload, seed, k)
            name = f"{workload}-{seed}-{k}"
            while True:
                inst = gen.make_instance(family, rng, name, SUBSET_SHARE if subset else None)
                if inst.whole:
                    answers = frozen[family]
                    removed = set(answers["removed"])
                    kept = [i for i, o in enumerate(inst.origin) if o not in removed]
                    break
                answers, kept = oracle.answers(list(inst.rays), inst.disc, inst.dim)
                if answers["bases"]:
                    break
            path = inputs / f"{k:03d}.ks"
            path.write_text(gen.render(inst, numeric), encoding="utf-8")
            requests.append({"kind": kind, "input": str(path), "trials": TRIALS,
                             "eval_seed": rng.randrange(1 << 30), "family": family})
            expected.append(check.Expected(inst, answers, kept))
    return requests, expected


def measure_setup(src: Path) -> float:
    """Fastest wall time, over SETUP_RUNS fresh interpreters, of importing
    kscertify and loading one catalog entry.  Like request times, set-up
    time only ever gains from the rest of the machine's load."""
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import kscertify; "
            "kscertify.load_rayset('peres-33')")
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        # No timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
        # which would round every sample up to that grain.
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(perf_counter() - start)
    return min(times)


def _judge(records, requests, expected, work: Path):
    """(failure reasons by record, correct?): budget expiries are failures
    but not wrong answers."""
    reasons, correct = {}, True
    for record in records:
        k = record["index"]
        try:
            reason = check.check_record(record, requests[k], expected[k], work / record["folder"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            reasons[record["seq"]] = f"{requests[k]['family']} (input {k}): {reason}"
            correct = correct and record["status"] == "budget"
    return reasons, correct


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result: dict, reasons: dict, setup_s: float, requests: list,
               passes: int) -> dict:
    """Metrics from each request's fastest run in the first timed passes.

    Every request of the list runs once per pass.  Slowdowns from the rest
    of the machine only ever add time, so each request's fastest run is the
    steadiest estimate of what the program needs for it.  Later passes are
    checked and counted but not timed.
    """
    records = result["records"]
    timed = [r for r in records if r["seq"] < passes * len(requests)]
    if len(timed) < passes * len(requests):
        print(f"only {len(timed) / len(requests):.0f} of {passes} timed passes ran")
    runs: dict[int, list[float]] = {}
    for record in timed:
        runs.setdefault(record["index"], []).append(record["elapsed"])
    fastest = {index: min(times) for index, times in runs.items()}
    best = list(fastest.values())
    ok = len(records) - len(reasons)
    by_family: dict[str, list[float]] = {}
    for index, seconds in fastest.items():
        by_family.setdefault(requests[index]["family"], []).append(seconds)
    for family, values in sorted(by_family.items()):
        print(f"{family}: {len(values)} requests, fastest-pass median "
              f"{statistics.median(values):.4f} s, min {min(values):.4f} s, max {max(values):.4f} s")
    print(f"{len(records)} runs of {len(best)} requests in {result['wall_s']:.3f} s, {ok} ok; "
          f"times from the first {len(timed)} runs")
    # Printed for reading, not gated: the requests of a workload fall in a
    # few clusters by family, so their median jumps between clusters from
    # seed to seed, and too few requests lie beyond the 90th percentile.
    print(f"request_p50_s {statistics.median(best):.6f} s, request_p90_s "
          f"{_percentile(best, 90):.6f} s, over {len(best)} requests")
    return {
        "requests_per_s": (len(best) / sum(best), "1/s"),
        "ok_share": (ok / len(records), "share"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(result: dict) -> dict:
    trace = result["trace"]
    calls, total, own, counts = trace["calls"], trace["total"], trace["self"], trace["counts"]
    traced = [r for r in result["records"] if r["folder"].startswith("t")]
    overruns = {layer: 0 for layer in LAYERS}
    for record in traced:
        if record["status"] == "budget" and record["layer"] in overruns:
            overruns[record["layer"]] += 1
    if trace["absent"]:
        print("absent patch points: " + ", ".join(trace["absent"]))
    metrics = {
        "cli.commands": (calls.get("cli.command", 0), "count"),
        "cli.self_s": (own.get("cli.command", 0.0), "s"),
        "cli.parse_calls": (calls.get("cli.parse", 0), "count"),
        "cli.parse_s": (total.get("cli.parse", 0.0), "s"),
        "cli.emit_s": (total.get("cli.emit", 0.0), "s"),
        "algebra.canonicalize_calls": (calls.get("algebra.canonicalize", 0), "count"),
        "algebra.canonicalize_s": (total.get("algebra.canonicalize", 0.0), "s"),
        "algebra.orthogonality_calls": (calls.get("algebra.orthogonality", 0), "count"),
        "algebra.orthogonality_s": (total.get("algebra.orthogonality", 0.0), "s"),
        "rayset.build_calls": (calls.get("rayset.build", 0), "count"),
        "rayset.validate_s": (total.get("rayset.validate", 0.0), "s"),
        "rayset.graph_s": (total.get("rayset.graph", 0.0), "s"),
        "rayset.graph_self_s": (own.get("rayset.graph", 0.0), "s"),
        "rayset.edges": (counts.get("rayset.edges", 0), "count"),
        "rayset.bases_s": (total.get("rayset.bases", 0.0), "s"),
        "rayset.bases": (counts.get("rayset.bases", 0), "count"),
        "rayset.prune_s": (total.get("rayset.prune", 0.0), "s"),
        "rayset.rays_removed": (counts.get("rayset.rays_removed", 0), "count"),
        "coloring.original_s": (total.get("coloring.original", 0.0), "s"),
        "coloring.original_nodes": (counts.get("coloring.original_nodes", 0), "count"),
        "coloring.extended_s": (total.get("coloring.extended", 0.0), "s"),
        "coloring.extended_nodes": (counts.get("coloring.extended_nodes", 0), "count"),
        "inequality.alpha_calls": (calls.get("inequality.alpha", 0), "count"),
        "inequality.alpha_s": (total.get("inequality.alpha", 0.0), "s"),
        "inequality.weights_s": (total.get("inequality.weights", 0.0), "s"),
        "inequality.opsum_s": (total.get("inequality.opsum", 0.0), "s"),
        "inequality.quantum_calls": (calls.get("inequality.quantum", 0), "count"),
        "inequality.quantum_s": (total.get("inequality.quantum", 0.0), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.overruns"] = (overruns[layer], "count")
    share = (trace["traced_s"] - trace["untraced_s"]) / trace["untraced_s"]
    metrics["trace.overhead_share"] = (share, "share")
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "kscertify" / "__init__.py").is_file():
        sys.exit(f"no kscertify source tree at {src}")
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        setup_s = None if args.trace else measure_setup(src)
        requests, expected = build_plan(args.workload, args.seed, inputs)
        _, _, traced_count, passes = WORKLOADS[args.workload]
        job = {
            "src": str(src),
            "work": str(work),
            "seconds": args.seconds,
            "passes": passes,
            "budget": BUDGET_S,
            "trace": bool(args.trace),
            "requests": requests[:traced_count] if args.trace else requests,
            "out": str(work / "result.json"),
            "spans_out": str(ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.json"),
        }
        (work / "job.json").write_text(json.dumps(job), encoding="utf-8")
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "job.json")],
                       check=True, timeout=args.seconds + BUDGET_S + 90)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        records = result["records"]
        reasons, correct = _judge(records, requests, expected, work)
        for seq, reason in sorted(reasons.items()):
            print(f"failed request {seq}: {reason}")
        metrics = per_layer(result) if args.trace else end_to_end(result, reasons, setup_s, requests, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(reasons),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
