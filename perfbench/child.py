"""One benchmark process: import hyperb, warm up, then run the job list.

Started by run.py in a fresh interpreter, one at a time.  Modes:

* measure -- set up, then run jobs untraced while the time budget lasts
             (see `measure`), and report the set-up time and job times,
             raw and scaled to the nominal host speed (calibrate.py).
* setup   -- set up as measure does, and report the set-up time only.
* trace   -- set up with tracing on, run one untraced pass and one traced
             pass, and report per-layer numbers and the tracing overhead.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

from calibrate import HostClock
from checks import check_cli, check_digest, families_in
from workloads import API_JOBS, SOLVE_INSTANCES, WORKLOADS, canonical


def _load(data: bytes) -> dict:
    try:
        return json.loads(data)
    except ValueError:
        return {}


class Ledger:
    """Times, checks and digests of every job run in one process.

    Only the job call is timed; its output is checked after it returns.
    A job run with any problem counts as one failure.
    """

    def __init__(self, hb, seed: int, out_dir: Path, reference: dict, tracer=None,
                 clock: HostClock | None = None):
        self.hb = hb
        self.seed = seed
        self.out_dir = out_dir
        self.reference = reference
        self.tracer = tracer
        self.clock = clock
        self.times = defaultdict(list)  # raw, less the probes inside
        self.spans = defaultdict(list)  # (start, end, raw) of each timed run
        self.families = {}  # verify jobs: families checked per run
        self.nodes = {}  # solve jobs: solver nodes
        self.attempted = self.failed = 0
        self.problems = {}

    def run(self, job) -> None:
        if job.kind == "api":
            api_run, api_check = API_JOBS[job.api]
            call = lambda: api_run(self.hb, self.seed, job.expected)  # noqa: E731
        else:
            path = self.out_dir / f"{job.id}.json"
            path.unlink(missing_ok=True)
            argv = [*job.argv, "--output", str(path)]
            call = lambda: self.hb.cli.main(argv)  # noqa: E731
        probing = self.clock.in_probes if self.clock else 0.0
        t0 = time.perf_counter()
        try:
            result = self.tracer.job(job.id, call) if self.tracer else call()
        except Exception as exc:  # a crashing job is a failed job
            self.record(job.id, [f"raised {type(exc).__name__}: {exc}"])
            return
        finally:
            t1 = time.perf_counter()
            raw = t1 - t0 - ((self.clock.in_probes if self.clock else 0.0) - probing)
            self.times[job.id].append(raw)
            self.spans[job.id].append((t0, t1, raw))
        if job.kind == "api":
            found = api_check(result, job.expected)
            data = canonical(result)
        else:
            data = path.read_bytes() if path.exists() else b""
            found = check_cli(job, result, data.decode(errors="replace"))
            payload = _load(data)
            if job.kind == "verify":
                self.families[job.id] = families_in(payload)
            elif job.kind == "solve":
                self.nodes[job.id] = payload.get("nodes", 0)
        found += check_digest(job.id, hashlib.sha256(data).hexdigest(), self.reference)
        self.record(job.id, found)

    def record(self, job_id: str, found: list[str]) -> None:
        self.attempted += 1
        if found:
            self.failed += 1
            seen = self.problems.setdefault(job_id, [])
            seen.extend(p for p in found if p not in seen)

    def normalised(self) -> dict:
        """Each job's times scaled to the nominal host speed."""
        return {
            job: [raw * self.clock.factor(t0, t1) for t0, t1, raw in spans]
            for job, spans in self.spans.items()
        }

    def summary(self) -> dict:
        return {
            "times": self.times,
            "norm_times": self.normalised() if self.clock else {},
            "families": self.families,
            "nodes": self.nodes,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
        }


def set_up(src: Path, workload, seed: int, run_id: str, traced: bool):
    """Import hyperb and warm up; the time of this is setup_s."""
    sys.path.insert(0, str(src))
    import hyperb
    import hyperb.cli

    if Path(hyperb.__file__).resolve().parent != (src / "hyperb").resolve():
        raise SystemExit(f"imported hyperb from {hyperb.__file__}, not from {src}")
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer(run_id, hyperb)
        tracer.install()
    drawn = workload.warm_up(hyperb, seed)
    return hyperb, tracer, drawn


def trace_metrics(tracer, plain: Ledger, traced: Ledger, jobs, drawn: int) -> tuple[dict, list]:
    """Per-layer metrics of the traced phases, reconciled with the outputs."""
    m = tracer.metrics()
    problems = []
    expected_draws = drawn + sum(j.sampled for j in jobs)
    if m["neighborhoods.sample_family_bits.calls"] != expected_draws:
        problems.append(
            f"sample_family_bits traced {m['neighborhoods.sample_family_bits.calls']} calls, "
            f"jobs requested {expected_draws} sampled families"
        )
    cli_jobs = sum(1 for j in jobs if j.kind != "api")
    if m["cli.main.calls"] != cli_jobs:
        problems.append(f"cli.main traced {m['cli.main.calls']} calls, ran {cli_jobs} CLI jobs")
    total = 0
    for tag, _, _ in SOLVE_INSTANCES:
        count = traced.nodes.get(f"solve-{tag}", 0)
        m[f"bcoloring.nodes.{tag}"] = count
        total += count
    m["bcoloring.nodes"] = total
    search_s = m["bcoloring.exact_b_chromatic.self_s"]
    m["bcoloring.nodes_per_s"] = total / search_s if search_s else 0.0
    plain_s = sum(t for times in plain.times.values() for t in times)
    traced_s = sum(t for times in traced.times.values() for t in times)
    m["trace.untraced_wall_s"] = plain_s
    m["trace.wall_s"] = traced_s
    m["trace.overhead_s"] = traced_s - plain_s
    return m, problems


def measure(ledger: Ledger, jobs, seconds: float) -> int:
    """Run whole passes of the job list, in order, until the time spent is
    the nearest it can get to `seconds`; at least one.  Returns the passes
    run.

    Every pass runs the same jobs in the same order, so each job meets the
    same cache state in every pass after the first, in every run.
    """
    clock = ledger.clock
    started = clock.now()
    passes = 0
    while True:
        for job in jobs:
            ledger.run(job)
        passes += 1
        spent = clock.now() - started
        if spent + spent / passes / 2 > seconds:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("measure", "setup", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--digests", type=Path, required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    run_id = f"{args.workload}-s{args.seed}"
    jobs = workload.jobs(args.seed)
    out_dir = args.out / f"{run_id}-{args.mode}"
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = json.loads(args.digests.read_text()) if args.digests.exists() else {}
    result = {"mode": args.mode}
    if args.mode != "trace":
        jobs = [job for job in jobs if not job.trace_only]
        with HostClock() as clock:
            t0, probing = time.perf_counter(), clock.in_probes
            hb, _, _ = set_up(args.src, workload, args.seed, run_id, False)
            t1 = time.perf_counter()
            raw_setup_s = t1 - t0 - (clock.in_probes - probing)
            ledger = Ledger(hb, args.seed, out_dir, reference, clock=clock)
            if args.mode == "measure":
                result["passes"] = measure(ledger, jobs, args.seconds)
        result["raw_setup_s"] = raw_setup_s
        result["setup_s"] = raw_setup_s * clock.factor(t0, t1)
        result["ledgers"] = [ledger.summary()]
        result["probes"] = clock.probes
    else:
        hb, tracer, drawn = set_up(args.src, workload, args.seed, run_id, True)
        tracer.uninstall()
        plain = Ledger(hb, args.seed, out_dir, reference)
        for job in jobs:
            plain.run(job)
        tracer.install()
        traced = Ledger(hb, args.seed, out_dir, reference, tracer)
        for job in jobs:
            traced.run(job)
        tracer.uninstall()
        layers, problems = trace_metrics(tracer, plain, traced, jobs, drawn)
        traced.record("trace-reconciliation", problems)
        tracer.write_spans(args.out / f"spans-{run_id}.jsonl")
        result["ledgers"] = [plain.summary(), traced.summary()]
        result["layers"] = layers
    result["reference"] = reference
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
