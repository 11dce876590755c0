"""hyperb benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in fresh,
single-threaded Python processes started one after another (see child.py):

* --trace 0: PROCESSES processes in turn each time `import hyperb` plus the
  warm-up, then share --seconds of running jobs (see `measure`); set-up-only
  processes may follow.  Reports the end-to-end metrics: setup_s (median
  over the set-ups); wall_s, the sum over jobs of each job's median time;
  and peak_rss_mb (the largest ru_maxrss).  Also printed: families_per_s on
  the sweeps, the families the verify jobs checked divided by the sum of
  their median times.  Times are scaled to a nominal host speed by probes
  of a fixed reference workload that a timer signal runs every quarter
  second (calibrate.py): on a shared host the speed of identical work
  drifts, and flips between levels up to about 1.7x apart for seconds to
  minutes, which no amount of repetition within a run averages away.  The
  raw times are printed and kept in the run record.
* --trace 1: one process sets up with tracing on, runs the job list once
  untraced and once traced, and reports the per-layer metrics and the
  tracing overhead.  Spans go to perfbench/out/spans-<workload>-s<seed>.jsonl.

Every output is checked (checks.py) and digested.  Digests are kept per
fingerprint of the program and benchmark sources, workload and seed in
perfbench/out/digests/, so any difference between repeats, runs, or traced
and untraced runs of the same code counts as a failed job.  A run record
with the machine, Python and source revision goes to perfbench/out/runs/.

The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import HELD_OUT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

PROCESSES = 3  # that set up and run jobs
# Set-up-only processes follow while fewer than SETUPS set-ups are timed and
# they have taken less than SETUP_BUDGET_S: a cheap set-up is short and
# noisy, so it is timed more often.
SETUPS = 11
SETUP_BUDGET_S = 2.0
DEADLINE_S = 170.0  # a run of one workload must end within 180 s


def source_fingerprint() -> str:
    """Digest of the program and the benchmark: outputs must not change
    while this stays the same."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "hyperb").glob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "revision": git_revision(),
        "source_sha256": source_fingerprint(),
    }


def spawn(mode: str, workload: str, seed: int, seconds: float, digests: Path,
          deadline: float) -> dict:
    """Run one child.py process to completion and return its result; keep
    the digests it has seen as the reference for the next process."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget spent before the run finished")
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"),
        "--mode", mode, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--src", str(SRC), "--out", str(OUT),
        "--digests", str(digests),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{mode} process for {workload} exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    tmp = digests.with_suffix(".tmp")
    tmp.write_text(json.dumps(res["reference"], sort_keys=True, indent=1))
    os.replace(tmp, digests)
    return res


def measure(name: str, seed: int, seconds: float, digests: Path, deadline: float):
    """End-to-end metrics from PROCESSES fresh processes, one after another,
    and set-up-only processes after them while set-ups are cheap.

    Each sets up (timed), then runs whole passes of the job list for its
    share of `seconds` (child.measure).  A job's time is its median over
    every run in every process, scaled to the nominal host speed.
    """
    results = []
    times: dict[str, list[float]] = {}  # raw
    norm: dict[str, list[float]] = {}  # scaled to the nominal host speed
    for _ in range(PROCESSES):
        res = spawn("measure", name, seed, seconds / PROCESSES, digests, deadline)
        for job, t in res["ledgers"][0]["times"].items():
            times.setdefault(job, []).extend(t)
        for job, t in res["ledgers"][0]["norm_times"].items():
            norm.setdefault(job, []).extend(t)
        results.append(res)
    setups = [r["setup_s"] for r in results]
    raw_setups = [r["raw_setup_s"] for r in results]
    while len(setups) < SETUPS and sum(raw_setups) < SETUP_BUDGET_S:
        res = spawn("setup", name, seed, 0, digests, deadline)
        setups.append(res["setup_s"])
        raw_setups.append(res["raw_setup_s"])
    typical = {job: statistics.median(t) for job, t in norm.items()}
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(typical.values()),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "raw_setup_s": statistics.median(raw_setups),
        "raw_wall_s": sum(statistics.median(t) for t in times.values()),
        "probe_s": statistics.median(p for r in results for p in r["probes"]),
    }
    # Printed, not gated: the sweeps' family counts are fixed, so this moves
    # with the verify jobs' time, which wall_s gates.
    families = results[0]["ledgers"][0]["families"]
    if families:
        metrics["families_per_s"] = sum(families.values()) / sum(typical[j] for j in families)
    return metrics, [led for r in results for led in r["ledgers"]]


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    digests = OUT / "digests" / source_fingerprint()[:16] / f"{name}-s{seed}.json"
    digests.parent.mkdir(parents=True, exist_ok=True)
    if trace:
        res = spawn("trace", name, seed, seconds, digests, deadline)
        metrics, ledgers = res["layers"], res["ledgers"]
    else:
        metrics, ledgers = measure(name, seed, seconds, digests, deadline)
    attempted = sum(led["attempted"] for led in ledgers)
    failed = sum(led["failed"] for led in ledgers)
    problems = {}
    for led in ledgers:
        for job, found in led["problems"].items():
            problems.setdefault(job, []).extend(found)
    record = {
        "workload": name,
        "why": WORKLOADS[name].why,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": trace,
        "seconds": seconds,
        "machine": machine(),
        "job_s": [led["times"] for led in ledgers],
        "norm_job_s": [led.get("norm_times", {}) for led in ledgers],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "metrics": metrics,
        "digests": json.loads(digests.read_text()),
    }
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{name}-s{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    return record


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hyperb" / "__init__.py").is_file():
        print(f"error: no hyperb sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    specs = metric_specs(bool(args.trace))
    correct = True
    attempted = failed = 0
    metrics = {}
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        attempted += rec["attempted"]
        failed += rec["failed"]
        correct = correct and rec["failed"] == 0
        m = rec["machine"]
        runs = sum(len(t) for led in rec["job_s"] for t in led.values())
        print(f"# {name}: seed {args.seed} (held-out {HELD_OUT_SEED}), {runs} job runs, "
              f"{m['nproc']} cpu {m['cpu']}, Python {m['python']}, rev {m['revision'][:12]}")
        for job, found in sorted(rec["problems"].items()):
            print(f"# FAIL {name} {job}: {'; '.join(found)}")
        for spec in specs:
            value = rec["metrics"][spec["name"]]
            key = spec["name"] if len(names) == 1 else f"{name}.{spec['name']}"
            metrics[key] = {"value": value, "unit": spec["unit"]}
            print(f"{name:12s} {spec['name']:48s} {value:14.6g} {spec['unit']}")
        if not args.trace:
            # Printed, not in the JSON metrics.
            extra = [("families_per_s", "1/s"), ("raw_setup_s", "s"), ("raw_wall_s", "s"),
                     ("probe_s", "s")]
            for key, unit in extra:
                if key in rec["metrics"]:
                    print(f"{name:12s} {key:48s} {rec['metrics'][key]:14.6g} {unit}")
        print(f"{name:12s} {'fail_ratio':48s} {rec['fail_ratio']:14.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
