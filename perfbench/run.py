#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the workload runner and
the tdrepair binary with dune, runs the workload once for at least
--seconds of measurement with set-up-only processes before and after
(the median set-up time is setup_s), checks every output, prints a
human-readable report and, as the last line of standard output, one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report  # noqa: E402

WORKLOADS = ["table1-repair", "tournament-repair", "scale-detect", "serve-mixed"]
# Set-up processes before and after the measuring one, which sets up
# too: setup_s is the median of 2 * SETUP_EACH_SIDE + 1 samples, taken
# on both sides of the measurement so that a host that drifts during
# the run moves them both ways.
SETUP_EACH_SIDE = 10
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RUNNER = "_build/default/perfbench/pb.exe"
TDREPAIR = "_build/default/bin/tdrepair.exe"
RUN_DIR = ".perfbench-run"


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        die("run me from the root of a tdrace checkout (no dune-project, lib/ or bin/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/pb.exe", "./bin/tdrepair.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
        timeout=BUILD_TIMEOUT_S,
    )
    if r.returncode != 0:
        die("build failed")


class Runner:
    """One pb.exe process in its own process group, so that the serve
    daemon it starts is stopped with it whatever happens."""

    def __init__(self, args):
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [RUNNER] + args,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            start_new_session=True,
            text=True,
        )

    def wait_ready(self):
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.kill()
            die("workload runner failed during set-up")
        return time.monotonic() - self.t0

    def finish(self, deadline):
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            die("workload runner timed out")
        if self.proc.returncode != 0:
            die("workload runner exited with %d" % self.proc.returncode)
        lines = [l for l in out.splitlines() if l.strip()]
        return json.loads(lines[-1]) if lines else None

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        # the serve daemon shares the group: wait until it is gone too
        for _ in range(100):
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def common_args(a):
    return ["--workload", a.workload, "--seed", str(a.seed)]


def fmt(v):
    if v == report.UNMEASURABLE:
        return v
    return "%.6g" % v


def code_version():
    h = hashlib.sha256()
    for path in (RUNNER, TDREPAIR):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def same_as_earlier_run(a, raw):
    """Counts and retained parallelism of a traced run are kept per
    workload, seed and code version; a later traced run of the same
    binaries and seed must repeat them exactly.  Keying by a hash of the
    binaries means a change that moves a count starts afresh instead of
    being held to its parent's counts."""
    path = os.path.join(RUN_DIR, "counts-%s-%d-%s.json" % (a.workload, a.seed, code_version()))
    now = report.deterministic_counts(raw)
    if not os.path.exists(path):
        os.makedirs(RUN_DIR, exist_ok=True)
        with open(path, "w") as f:
            json.dump(now, f, sort_keys=True)
        return []
    with open(path) as f:
        before = json.load(f)
    return ["%s: %s now, %s in an earlier run of the same code and seed" % (k, now.get(k), before.get(k))
            for k in sorted(set(before) | set(now)) if before.get(k) != now.get(k)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    start = time.monotonic()

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    setups = []

    def set_up_only():
        for _ in range(SETUP_EACH_SIDE):
            r = Runner(["setup"] + common_args(a))
            setups.append(r.wait_ready())
            r.finish(deadline)

    set_up_only()
    r = Runner(["run"] + common_args(a) + ["--seconds", str(a.seconds), "--trace", str(a.trace)])
    setups.append(r.wait_ready())
    raw = r.finish(deadline)
    if raw is None:
        die("workload runner printed no result")
    set_up_only()

    failures = list(raw["failures"])
    attempted = raw["attempted"]
    failed = len(failures)
    print("perfbench %s seed=%d nproc=%d trace=%d seconds=%g (%.1f s in all)"
          % (a.workload, a.seed, nproc(), a.trace, a.seconds, time.monotonic() - start))

    if a.trace == 0:
        metrics, facts = report.end_to_end(raw, setups)
        units = dict(report.END_TO_END)
        print("  passes %d; latency over %d operations (p90 column is p%.0f)"
              % (facts["passes"], facts["latency_samples"], facts["latency_p90_is_percentile"]))
        for name, unit in report.END_TO_END:
            print("  %-22s %14s %s" % (name, fmt(metrics[name]), unit))
    else:
        metrics, facts = report.per_layer(raw)
        units = dict(report.PER_LAYER)
        wall = report.median(facts["traced_walls"])
        print("  traced wall %.4f s over %d passes; self time by layer (share of wall):"
              % (wall, len(facts["traced_walls"])))
        total = 0.0
        for name in report.TIME_METRICS:
            samples = [st.get(name, 0.0) for st in facts["per_pass"]]
            total += sum(samples) / len(samples)
            if any(samples):
                print("  %-26s %12.6f s  %s" % (name, report.median(samples), fmt(report.share(samples, wall))))
        print("  self times of the traced passes sum to %.4f s of %.4f s wall" % (total, wall))
        for name, s in facts["outside"].items():
            print("  %-26s %12.6f s  outside the passes" % (name, s))
        overhead = report.difference(facts["traced_walls"], facts["untraced_walls"])
        print("  tracing overhead: %s (untraced passes %s s)"
              % (fmt(overhead) + (" s" if overhead != report.UNMEASURABLE else ""),
                 ", ".join("%.4f" % w for w in facts["untraced_walls"])))
        for name, unit in report.PER_LAYER:
            if unit != "s" and metrics[name]:
                print("  %-26s %14s %s" % (name, fmt(metrics[name]), unit))
        problems = report.determinism_failures(raw) + same_as_earlier_run(a, raw)
        failures += problems
        if problems:
            failed += 1

    print("  attempted %d, failed %d, fail_rate %.4g" % (attempted, failed, failed / max(1, attempted)))
    for f in failures:
        print("  FAILED " + f)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
