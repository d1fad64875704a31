"""Turns the raw measurements of one perfbench run into metrics.

Pure functions over the JSON object that ``pb.exe run`` prints; run.py
does the process handling.  Nothing here subtracts a baseline to make a
rate or a share: a difference or a share that is not larger than its
run-to-run spread is reported as UNMEASURABLE.
"""

import math
import statistics

UNMEASURABLE = "unmeasurable"

# From this many samples on, p90 is capped so that ten samples lie
# beyond it.  Only serve-mixed has that many.
MANY = 100

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("accesses_per_s", "1/s"),
    ("parallelism_retained", "ratio"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# Per-layer self times, in seconds.  Every span a traced pass records is
# charged to one of these; other_s is the part of an operation that no
# layer span covers.
TIME_METRICS = [
    "mhj.compile_s",
    "rt.interp_s",
    "sdpst.build_s",
    "espbags.detect_s",
    "vclock.detect_s",
    "core.repair_s",
    "core.detect_s",
    "core.scopecheck_s",
    "core.nslca_group_s",
    "core.depgraph_s",
    "core.dp_place_s",
    "core.rewrite_s",
    "strategy.tournament_s",
    "strategy.finish_s",
    "strategy.isolated_s",
    "strategy.elide_s",
    "strategy.chunk_s",
    "compgraph.score_s",
    "par.validate_s",
    "serve.request_s",
    "other_s",
]

COUNT_METRICS = [
    "rt.work",
    "sdpst.nodes",
    "detector.accesses",
    "detector.races",
    "detector.uf_finds",
    "detector.uf_unions",
    "detector.scan_entries",
    "detector.clock_merges",
    "detector.tasks",
    "detector.gc_retired",
    "detector.shadow_words",
    "detector.shadow_slabs",
    "detector.spilled_races",
    "driver.races",
    "driver.race_pairs",
    "driver.groups",
    "driver.iterations",
    "driver.finishes_inserted",
    "engine.tasks",
    "engine.inlined",
    "engine.yields",
    "strategy.nonfinish_winners",
    "prune.kept",
    "prune.discharged",
    "serve.jobs_shed",
    "serve.retries",
]

SERVE_METRICS = [
    ("serve.miss_rtt_ms.detect", "ms"),
    ("serve.miss_rtt_ms.repair", "ms"),
    ("serve.lint_rtt_ms", "ms"),
    ("serve.hit_rtt_ms", "ms"),
    ("serve.health_rtt_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
]

PER_LAYER = (
    [(m, "s") for m in TIME_METRICS]
    + [(m, "count") for m in COUNT_METRICS]
    + SERVE_METRICS
    + [("obs.trace_overhead_s", "s"), ("obs.trace_overhead_measurable", "count")]
)

# Counts that must repeat exactly for a fixed seed.
DETERMINISTIC_PREFIXES = ("detector.", "driver.", "engine.", "strategy.", "prune.", "rt.", "sdpst.")

# Spans the program records itself, by layer metric.
SPAN_METRIC = {
    "op": "other_s",
    "mhj.compile": "mhj.compile_s",
    "parse": "mhj.compile_s",
    "typecheck": "mhj.compile_s",
    "normalize": "mhj.compile_s",
    "rt.interp": "rt.interp_s",
    "sdpst-build": "sdpst.build_s",
    "espbags.detect": "espbags.detect_s",
    "vclock.detect": "vclock.detect_s",
    "core.repair": "core.repair_s",
    "detect": "core.detect_s",
    "scopecheck": "core.scopecheck_s",
    "nslca-group": "core.nslca_group_s",
    "depgraph": "core.depgraph_s",
    "dp-place": "core.dp_place_s",
    "rewrite": "core.rewrite_s",
    "validate-par": "par.validate_s",
    "strategy.tournament": "strategy.tournament_s",
    "compgraph.score": "compgraph.score_s",
    "serve.request": "serve.request_s",
}

# "sdpst-build" wraps every depth-first execution.  Directly under a call
# the benchmark makes into the interpreter or a detector it is that
# call's own work; under the repair driver it is S-DPST construction.
FOLD_SDPST_INTO = ("rt.interp", "espbags.detect", "vclock.detect")


def median(xs):
    return statistics.median(xs)


def spread(xs):
    """Run-to-run spread of a few samples: their range."""
    return max(xs) - min(xs) if xs else 0.0


def difference(run, base):
    """median(run) - median(base), or UNMEASURABLE when that is not
    larger than the spread of either sample set.  A baseline slower
    than the run is never turned into a number."""
    d = median(run) - median(base)
    if d <= max(spread(run), spread(base)):
        return UNMEASURABLE
    return d


def share(part, whole):
    """median(part) / whole, or UNMEASURABLE when the part is not larger
    than its own run-to-run spread."""
    m = median(part)
    if whole <= 0 or m <= spread(part):
        return UNMEASURABLE
    return m / whole


def percentile(xs, p):
    """Interpolated percentile (statistics.quantiles, inclusive method),
    capped at the highest percentile with at least ten samples beyond
    it when there are at least MANY samples.  Returns (value, percentile
    used, sample count)."""
    n = len(xs)
    if n == 1:
        return xs[0], p, 1
    if n >= MANY:
        p = min(p, 100.0 * (n - 10) / n)
    cuts = statistics.quantiles(xs, n=1000, method="inclusive")
    i = min(len(cuts) - 1, max(0, round(p * 10) - 1))
    return cuts[i], p, n


def geomean(xs):
    # summed in sorted order, so the result does not depend on the
    # order in which the ratios were collected
    return math.exp(sum(math.log(x) for x in sorted(xs)) / len(xs))


def span_tree(events):
    """Events are [name, ts_ns, dur_ns, depth], parents before children.
    Returns [(name, ts, dur, parent_index)]."""
    evs = sorted(events, key=lambda e: (e[1], -e[2], e[3]))
    out, stack = [], []
    for name, ts, dur, depth in evs:
        while stack and out[stack[-1]][4] >= depth:
            stack.pop()
        parent = stack[-1] if stack else None
        out.append((name, ts, dur, parent, depth))
        stack.append(len(out) - 1)
    return [(n, t, d, p) for n, t, d, p, _ in out]


def root_shares(tree):
    """Time each root span is charged: its duration split evenly with
    the roots that overlap it (roots overlap only where the benchmark
    keeps several requests in flight).  The charges sum to the union of
    the root intervals."""
    roots = [i for i, (_, _, _, p) in enumerate(tree) if p is None]
    points = []
    for i in roots:
        _, ts, dur, _ = tree[i]
        points.append((ts, 1, i))
        points.append((ts + dur, -1, i))
    points.sort(key=lambda x: (x[0], x[1]))
    charged = {i: 0.0 for i in roots}
    active = set()
    last = None
    for t, kind, i in points:
        if active and last is not None and t > last:
            each = (t - last) / len(active)
            for j in active:
                charged[j] += each
        last = t
        if kind == 1:
            active.add(i)
        else:
            active.discard(i)
    return charged


def metric_of(tree, i, cache):
    if i in cache:
        return cache[i]
    name, _, _, parent = tree[i]
    pname = tree[parent][0] if parent is not None else None
    if name == "sdpst-build" and pname in FOLD_SDPST_INTO:
        m = metric_of(tree, parent, cache)
    elif name in SPAN_METRIC:
        m = SPAN_METRIC[name]
    elif parent is not None:
        m = metric_of(tree, parent, cache)
    else:
        m = "other_s"
    cache[i] = m
    return m


def self_times(events):
    """Self time in seconds per layer metric: a span's duration minus the
    part its child spans cover.  Sums to the union of the root spans."""
    tree = span_tree(events)
    charged = root_shares(tree)
    child_ns = [0] * len(tree)
    for name, ts, dur, parent in tree:
        if parent is not None:
            child_ns[parent] += dur
    out, cache = {}, {}
    for i, (name, ts, dur, parent) in enumerate(tree):
        own = charged[i] if parent is None else dur
        m = metric_of(tree, i, cache)
        out[m] = out.get(m, 0.0) + (own - child_ns[i]) / 1e9
    return out


def union_s(events):
    return sum(root_shares(span_tree(events)).values()) / 1e9


def job_ops(p):
    return [(n, s) for n, s in p["ops"] if n != "health"]


def end_to_end(raw, setup_samples):
    """Metrics of an untraced run, with their units, plus the facts the
    human-readable report prints beside them."""
    passes = [p for p in raw["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in passes]
    n_jobs = sum(len(job_ops(p)) for p in passes)
    if raw["workload"] == "serve-mixed":
        lats = [s for p in passes for _, s in job_ops(p)]
    else:
        # a batch user submits the whole input set: one pass is one job
        lats = walls
    p50, _, _ = percentile(lats, 50)
    p90, p90_at, n = percentile(lats, 90)
    accesses = sum(p["accesses"] for p in passes)
    # serve-mixed has no detect clock of its own: its accesses are
    # counted against the wall time of the passes
    detect_s = sum(p["detect_s"] for p in passes) or sum(walls)
    ratios = passes[0]["ratios"]
    m = {
        "setup_s": median(setup_samples),
        "wall_s": median(walls),
        "accesses_per_s": accesses / detect_s if detect_s > 0 else 0.0,
        # scale-detect repairs nothing, so it keeps all its parallelism
        "parallelism_retained": geomean(ratios) if ratios else 1.0,
        "jobs_per_s": n_jobs / sum(walls),
        "latency_p50_ms": 1e3 * p50,
        "latency_p90_ms": 1e3 * p90,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    facts = {
        "passes": len(passes),
        "latency_samples": n,
        "latency_p90_is_percentile": p90_at,
    }
    return m, facts


def determinism_failures(raw):
    """Counts and retained parallelism must be identical in every pass
    of one run (a traced run has two untraced and two traced passes)."""
    problems = []
    passes = raw["passes"]
    ref = passes[0]
    keys = {k for p in passes for k in p["counts"] if k.startswith(DETERMINISTIC_PREFIXES)}
    for i, p in enumerate(passes[1:], start=1):
        for k in sorted(keys):
            a, b = ref["counts"].get(k, 0), p["counts"].get(k, 0)
            if a != b:
                problems.append("count %s: pass 0 has %d, pass %d has %d" % (k, a, i, b))
        if sorted(ref["ratios"]) != sorted(p["ratios"]):
            problems.append("parallelism ratios differ between pass 0 and pass %d" % i)
    return problems


def deterministic_counts(raw):
    """What a traced run must repeat for a fixed seed and code version."""
    p = raw["passes"][0]
    out = {k: v for k, v in p["counts"].items() if k.startswith(DETERMINISTIC_PREFIXES)}
    out["parallelism_retained"] = repr(geomean(p["ratios"])) if p["ratios"] else "1.0"
    return out


def per_layer(raw):
    """Metrics of a traced run: layer self times averaged over the traced
    passes, counts, serve round trips and the tracing overhead.  Also
    returns the per-pass self times (for shares and their spread)."""
    untraced = [p for p in raw["passes"] if not p["traced"]]
    traced = [p for p in raw["passes"] if p["traced"]]
    per_pass = []
    for p in traced:
        st = self_times(p["events"])
        # the part of the pass that no span covers at all
        st["other_s"] = st.get("other_s", 0.0) + max(0.0, p["wall_s"] - union_s(p["events"]))
        per_pass.append(st)
    m = {}
    for name in TIME_METRICS:
        m[name] = statistics.mean(st.get(name, 0.0) for st in per_pass)
    # measured outside the passes: compiling the inputs at set-up, and
    # the runs only a traced run makes
    outside = {"mhj.compile_s": raw["compile_s"]}
    outside.update((k, s) for k, s in raw["extras"].items() if k in m)
    for name, s in outside.items():
        m[name] += s
    counts = traced[0]["counts"]
    for name in COUNT_METRICS:
        m[name] = float(counts.get(name, 0)) + float(raw["extras"].get(name, 0))

    def rtts(*names):
        xs = [s for p in traced for n, s in p["ops"] if ":".join(n.split(":")[:2]) in names]
        return 1e3 * median(xs) if xs else 0.0

    m["serve.miss_rtt_ms.detect"] = rtts("detect:miss")
    m["serve.miss_rtt_ms.repair"] = rtts("repair:miss")
    m["serve.lint_rtt_ms"] = rtts("lint:miss")
    m["serve.hit_rtt_ms"] = rtts("detect:hit", "repair:hit", "lint:hit")
    m["serve.health_rtt_ms"] = rtts("health")
    jobs = sum(len(job_ops(p)) for p in traced)
    hits = sum(p["counts"].get("serve.cache_hits", 0) for p in traced)
    m["serve.cache_hit_rate"] = hits / jobs if jobs else 0.0
    # A difference within the passes' spread is not published as a
    # number: the value is clamped to 0 and the flag says so.
    overhead = difference([p["wall_s"] for p in traced], [p["wall_s"] for p in untraced])
    measurable = overhead != UNMEASURABLE
    m["obs.trace_overhead_s"] = overhead if measurable else 0.0
    m["obs.trace_overhead_measurable"] = 1.0 if measurable else 0.0
    facts = {
        "per_pass": per_pass,
        "outside": outside,
        "traced_walls": [p["wall_s"] for p in traced],
        "untraced_walls": [p["wall_s"] for p in untraced],
    }
    return m, facts
