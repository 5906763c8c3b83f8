#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of `bcountd` and the
counting engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-goldens [--workload NAME]

Run from the repository root (any directory works; the script moves to
the root). It builds `bcountd` (and, for --trace 1, the in-process
tracer in perfbench/tracer) in release mode into $CARGO_TARGET_DIR
(default .bench_build), drives the workload, checks every output, and
prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the per-layer ones. Lines before it, prefixed '#', give
sample counts, noise diagnostics and notes. --record-goldens re-records
goldens.json, the outputs every run is checked against.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from daemon import Daemon, DaemonError  # noqa: E402

GOLDENS = os.path.join(HERE, "goldens.json")
SOURCES = ("Cargo.toml", "Cargo.lock", "crates/daemon/Cargo.toml", "crates/sim/src/engine.rs")


def log(msg):
    print(f"# {msg}", flush=True)


def build(trace):
    """Release-builds bcountd (and the tracer); returns their paths."""
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        sys.exit(f"perfbench: the repository sources are missing ({', '.join(missing)}); "
                 "run from a checkout of the repository")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    steps = [cargo + ["-p", "bcount-daemon", "--bin", "bcountd"]]
    if trace:
        steps.append(cargo + ["--manifest-path", "perfbench/tracer/Cargo.toml"])
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "bcountd"), os.path.join(release, "bcount-trace")


def load_goldens():
    try:
        with open(GOLDENS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def record_goldens(binary, rundir, names):
    goldens = load_goldens()
    for name in names:
        wl = workloads.WORKLOADS[name]
        for slot in range(workloads.SLOTS):
            st = workloads.Stream(keep=False)
            d = Daemon(binary, rundir, wl.daemon_args(workloads.fresh(os.path.join(rundir, "s"))))
            try:
                workloads.run_stream(d, wl, slot, st)
            finally:
                d.kill()
            steps = st.kinds.count("session.step")
            goldens.setdefault(name, {})[str(slot)] = {
                "finals": st.finals, "digest": st.digest.hexdigest()}
            log(f"{name} slot {slot}: {len(st.finals)} session(s), {steps} steps, "
                f"rounds {[f[0] for f in st.finals][:4]}, stream {st.wall:.2f} s")
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args()
    if not args.record_goldens and args.workload is None:
        ap.error("--workload is required")

    os.chdir(ROOT)
    binary, tracer = build(args.trace == 1)
    rundir = os.path.join(".bench_run", str(os.getpid()))
    workloads.fresh(rundir)
    try:
        if args.record_goldens:
            record_goldens(binary, rundir, [args.workload] if args.workload
                           else sorted(workloads.WORKLOADS))
            return 0
        wl = workloads.WORKLOADS[args.workload]
        slot = args.seed % workloads.SLOTS
        goldens = load_goldens().get(wl.name, {})
        log(f"workload {wl.name}, seed {args.seed} (first input set {slot}), "
            f"{args.seconds} s, trace {args.trace}")
        tot = workloads.Totals()
        metrics, error = {}, None
        try:
            if args.trace:
                metrics = workloads.trace(binary, tracer, rundir, wl, slot,
                                          goldens.get(str(slot)), tot, log)
            else:
                metrics = workloads.measure(binary, rundir, wl, slot, args.seconds, goldens,
                                            tot, log)
        except (workloads.CheckFailed, DaemonError, subprocess.SubprocessError, OSError,
                ValueError, KeyError) as e:
            error = e
            log(f"FAILED: {e}")
            tot.failed = max(tot.failed, 1)
            tot.attempted = max(tot.attempted, 1)
        print(json.dumps({
            "correct": error is None and tot.failed == 0,
            "attempted": tot.attempted,
            "failed": tot.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }), flush=True)
        return 0 if error is None and tot.failed == 0 else 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(".bench_run")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
