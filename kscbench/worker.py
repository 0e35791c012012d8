"""The timed process: drives kscertify's CLI in-process, one request at a time.

Usage: ``python3 kscbench/worker.py <job.json>``.  The job names the source
tree to import kscertify from, the requests, the per-request budget and the
output file.  Only kscertify and the standard library are imported here, so
the peak RSS reported is that of the program and its own dependencies.

A certify request runs ``prune --out``, both ``verify`` modes,
``inequality --out`` and ``evaluate --state random`` on the pruned file, then
the library's exact ``operator_sum_check`` on the pruned set.  A verify
request runs ``prune --out``, both ``verify`` modes and ``info``.  Each step's
standard output and error go to files in the request's folder, written after
the request's clock stops, for checking after the run; this process keeps only
statuses and times in memory, so its peak RSS does not grow with the number of
runs, and it judges nothing.

Without tracing the request list runs in a closed loop (one client, the next
request starts when the previous one ends), pass after pass, until the time
is up, the current pass is complete and at least the job's number of timed
passes has run.  With tracing, each request of the list runs once untraced
and once traced, so that the traced runs have fixed counts and the pairs give
the tracing overhead.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
import traceback
from contextlib import redirect_stderr
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "algebra", "rayset", "coloring", "inequality")


class BudgetExpired(BaseException):
    """Raised by the budget timer.  Not a ValueError or OSError (which
    ``run_command`` turns into exit status 2), and not an Exception, so that
    no handler inside the program can swallow it."""

    def __init__(self, layer: str) -> None:
        super().__init__(layer)
        self.layer = layer


def _running_layer(frame) -> str:
    """The kscertify module of the innermost kscertify frame, else 'bench'."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("kscertify."):
            return module.split(".")[1]
        frame = frame.f_back
    return "bench"


def _expire(signum, frame) -> None:
    raise BudgetExpired(_running_layer(frame))


def _steps(request: dict, folder: Path) -> list[tuple[str, list[str]]]:
    pruned = str(folder / "pruned.ks")
    steps = [
        ("prune", ["prune", request["input"], "--out", pruned]),
        ("original", ["verify", pruned, "--mode", "original"]),
        ("extended", ["verify", pruned, "--mode", "extended"]),
    ]
    if request["kind"] == "certify":
        steps.append(("inequality", ["inequality", pruned, "--out", str(folder / "ineq.txt")]))
        steps.append(("evaluate", ["evaluate", pruned, "--state", "random",
                                   "--trials", str(request["trials"]),
                                   "--seed", str(request["eval_seed"])]))
    else:
        steps.append(("info", ["info", pruned]))
    return steps


def run_request(ks, run_command, request: dict, folder: Path, budget: float) -> dict:
    """Run one request under the budget; return its status, the exit status
    of each step and its time.  The steps' outputs go to ``<step>.out`` and
    ``<step>.err`` in the folder."""
    record = {"status": "ok", "steps": {}, "opsum": None}
    outputs = {}
    folder.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        for name, argv in _steps(request, folder):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stderr(err):
                status = run_command(argv, out)
            record["steps"][name] = status
            outputs[name] = (out.getvalue(), err.getvalue())
        if request["kind"] == "certify":
            text = (folder / "pruned.ks").read_text(encoding="utf-8")
            instance = ks.build_instance(ks.parse_rayset(text))
            record["opsum"] = ks.operator_sum_check(instance, ks.compute_weights(instance))
    except BudgetExpired as exc:
        record["status"] = "budget"
        record["layer"] = exc.layer
    except Exception:  # a crash in the program fails this request, not the run
        record["status"] = "exception"
        record["error"] = traceback.format_exc(limit=-3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    record["elapsed"] = perf_counter() - start
    for name, (out, err) in outputs.items():
        (folder / f"{name}.out").write_text(out, encoding="utf-8")
        (folder / f"{name}.err").write_text(err, encoding="utf-8")
    return record


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"])
    sys.path.insert(0, str(src))
    import kscertify
    import kscertify.cli

    if not Path(kscertify.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"kscertify imported from {kscertify.__file__}, not from {src}")
    signal.signal(signal.SIGALRM, _expire)
    work = Path(job["work"])
    requests = job["requests"]
    budget = job["budget"]
    records = []
    result: dict = {}
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        traced_command = tracer.span("cli.command", kscertify.cli.run_command)
        elapsed = {"u": 0.0, "t": 0.0}
        for k, request in enumerate(requests):
            # Each request runs untraced and traced back to back, in turn
            # first, so that drifts in machine speed cancel in the overhead.
            for tag in ("u", "t") if k % 2 == 0 else ("t", "u"):
                command = kscertify.cli.run_command
                if tag == "t":
                    tracer.install()
                    tracer.request = k
                    command = traced_command
                try:
                    record = run_request(kscertify, command, request, work / f"{tag}{k:05d}", budget)
                finally:
                    tracer.uninstall()
                elapsed[tag] += record["elapsed"]
                record.update(seq=len(records), index=k, folder=f"{tag}{k:05d}")
                records.append(record)
        result["trace"] = {
            "untraced_s": elapsed["u"],
            "traced_s": elapsed["t"],
            "calls": dict(tracer.calls),
            "total": dict(tracer.total),
            "self": dict(tracer.self_time),
            "counts": dict(tracer.counts),
            "absent": tracer.absent,
        }
        Path(job["spans_out"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    else:
        run_command = kscertify.cli.run_command
        start = perf_counter()
        deadline = start + job["seconds"]
        hard_stop = start + 3 * job["seconds"]
        timed = job["passes"] * len(requests)
        seq = 0
        # Stop after a whole pass over the request list, so that every
        # request has run the same number of times, and not before the
        # timed passes are done, unless the run goes past three times the
        # measuring time.
        while perf_counter() < deadline or ((seq % len(requests) or seq < timed)
                                            and perf_counter() < hard_stop):
            index = seq % len(requests)
            record = run_request(kscertify, run_command, requests[index], work / f"r{seq:05d}", budget)
            record.update(seq=seq, index=index, folder=f"r{seq:05d}")
            records.append(record)
            seq += 1
        result["wall_s"] = perf_counter() - start
    result["records"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["out"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
