#!/usr/bin/env python3
"""Sweep benchmark for the affinity-scheduling simulator.

Builds the harness (perfbench/harness.cc) and the simulator libraries from
the checkout's sources, runs one workload for a fixed time, checks every
document the run produced and prints each metric by name with its unit. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (host time, untraced);
with --trace 1 they are the per-layer ones, from a traced run timed only
from outside the simulator. See perfbench/README.md.

    python3 perfbench/run.py --workload mq-numa-observed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "affsched_perfbench"
RUNS = ROOT / ".bench_build" / "runs"
DIGESTS = HERE / "digests.json"
GOLDEN_FIG5 = ROOT / "tests" / "golden" / "sweep_fig5_seed1000.json"

# The seed whose documents have recorded digests (digests.json).
DEFAULT_SEED = 1
SETUP_PROBES = 11
# Every subprocess must finish well inside the 180 s a run may take.
DEADLINE_S = 170.0
NPROC = os.cpu_count() or 1
PAR_JOBS = min(4, NPROC)

WORKLOADS = ["fig5-serial", "mq-numa-observed", "open-rt-colors", "serve-iterate"]

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("cpu_s", "s"), ("cell_ms.p50", "ms"), ("cell_ms.p90", "ms"),
    ("engine.self_s", "s"), ("engine.ns_per_chunk", "ns"), ("engine.ns_per_event", "ns"),
    ("engine.build_ms", "ms"), ("engine.chunks", "count"),
    ("sim.events_run", "count"), ("sim.events_cancelled", "count"),
    ("sim.pool_high_water", "count"),
    ("sched.decisions", "count"), ("sched.assignments", "count"),
    ("sched.balance_ticks", "count"), ("sched.decision_s", "s"), ("sched.ns_per_decision", "ns"),
    ("sink.trace.records", "count"), ("sink.trace.ns_per_record", "ns"),
    ("sink.decision.records", "count"), ("sink.decision.ns_per_record", "ns"),
    ("obs.overhead_frac", "ratio"),
    ("runner.rounds", "count"), ("runner.barrier_idle_s", "s"), ("runner.parallel_eff", "ratio"),
    ("runner.fold_s", "s"), ("runner.tojson_ms", "ms"),
    ("opensys.calibrate_ms", "ms"), ("opensys.cells", "count"),
    ("serve.hit_frac", "ratio"), ("serve.cold_submit_s", "s"), ("serve.warm_submit_ms", "ms"),
    ("serve.cache_bytes", "bytes"), ("serve.resubmit_ms.p50", "ms"),
    ("serve.resubmit_ms.p90", "ms"),
    ("cache.reload_stall_s", "sim_s"), ("cache.affinity_fraction", "ratio"),
    ("topology.reload_remote_s", "sim_s"), ("machine.reallocations", "count"),
    ("trace.overhead_frac", "ratio"), ("trace.uncovered_frac", "ratio"),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


class Deadline:
    def __init__(self):
        self.start = time.monotonic()

    def left(self):
        return max(1.0, DEADLINE_S - (time.monotonic() - self.start))


# --- Workload specs -----------------------------------------------------------

def specs(workload, seed):
    """The generated inputs for one workload at one seed. The harness receives
    only these spec strings, never the seed."""
    root = 1000 + seed
    if workload == "fig5-serial":
        # The closed Fig 5 grid (4 policies x mixes 1-6). One replication per
        # cell keeps the work per unit fixed: adaptive 3-5 replications would
        # make a unit's cell count depend on the seed.
        return {"spec": f"fig5;reps=1;seed={root}", "jobs": 1}
    if workload == "mq-numa-observed":
        # Four replications instead of the preset's two: eight independent
        # draws per unit instead of four, so the unit's cost depends less on
        # the seed.
        return {"spec": f"mq;observability=1;reps=4;seed={root}", "jobs": PAR_JOBS}
    if workload == "open-rt-colors":
        return {"spec": "opensys;policies=dyn-aff,rt-static-affinity,rt-color-iso;rt=1;"
                        f"deadline-mix=mixed;colors=8;count=40;seed={root}", "jobs": 1}
    if workload == "serve-iterate":
        # Equivalent spellings: override order and float spelling are
        # provenance, not identity, so each resubmit is all cache hits.
        overrides = [f"seed={root}", "procs=16", "mixes=1,5"]
        respell = []
        for speed in ["speed=1", "speed=1.0", "speed=1.00", "speed=1e0"]:
            for order in itertools.permutations(overrides + [speed]):
                respell.append("smoke;" + ";".join(order))
        return {"spec": f"smoke;seed={root}", "respell": respell,
                "widen": f"smoke;mixes=1,3,5;seed={root}", "jobs": PAR_JOBS}
    raise ValueError(workload)


# --- Build ----------------------------------------------------------------------

def build(deadline):
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "build.log"
    with open(log_path, "a") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out, timeout=deadline.left()).returncode:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        cmd = ["cmake", "--build", str(BUILD), "--target", "affsched_perfbench", "-j", str(NPROC)]
        # The first build of a checkout may take long; later ones are no-ops.
        return subprocess.run(cmd, stdout=out, stderr=out).returncode == 0


def build_type():
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


# --- Harness invocations ---------------------------------------------------------

def harness(workload, inputs, mode, out_dir, deadline, seconds=0.0, jobs=None, detached=False,
            t0_ns=None):
    cmd = [str(BINARY), "--workload", workload, "--mode", mode, "--spec", inputs["spec"],
           "--jobs", str(jobs or inputs["jobs"]), "--seconds", repr(seconds),
           "--out", str(out_dir)]
    for text in inputs.get("respell", []):
        cmd += ["--respell", text]
    if "widen" in inputs:
        cmd += ["--widen", inputs["widen"]]
    if detached:
        cmd.append("--detached")
    if t0_ns is not None:
        cmd += ["--t0-ns", str(t0_ns)]
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(f"harness {mode} failed: {proc.stderr.strip()}")
    if mode == "setup":
        return json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((out_dir / "result.json").read_text())
    result["doc_texts"] = [(out_dir / f"doc{i}.json").read_bytes()
                           for i in range(result["docs"])]
    return result


def setup_seconds(workload, inputs, run_dir, deadline):
    """Median over several fresh processes of: process spawn -> first cell."""
    values = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        values.append(harness(workload, inputs, "setup", run_dir / "setup", deadline,
                              t0_ns=t0)["setup_s"])
    return statistics.median(values)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# --- Checks ---------------------------------------------------------------------

def default_checks(workload):
    """(digest key, inputs, harness options) of the default-seed documents
    checked against digests.json on every run."""
    default = specs(workload, DEFAULT_SEED)
    checks = [(workload, default, {"jobs": PAR_JOBS})]
    if workload == "mq-numa-observed":
        # Sinks detached at one worker must give the bytes recorded with every
        # sink attached at PAR_JOBS workers; on one replication, to keep the
        # serial run short.
        reduced = dict(default, spec=default["spec"].replace("reps=4", "reps=1"))
        checks.append((workload + "/reps=1", reduced, {"jobs": 1, "detached": True}))
    return checks


def check_documents(workload, run_dir, deadline):
    """Documents checked on every run, outside the timed region. Returns
    (cells attempted, cells failed, names of failed checks)."""
    attempted, failed, problems = 0, 0, []
    recorded = json.loads(DIGESTS.read_text())
    for i, (key, inputs, options) in enumerate(default_checks(workload)):
        res = harness(workload, inputs, "time", run_dir / f"check{i}", deadline, **options)
        attempted += res["cells_attempted"]
        failed += res["mismatches"]
        digests = [sha256(doc) for doc in res["doc_texts"]]
        if digests != recorded.get(key):
            problems.append(f"{key}: default-seed digest {digests} != recorded "
                            f"{recorded.get(key)}")
            failed += res["cells_attempted"] - res["mismatches"]
    if workload in ("fig5-serial", "mq-numa-observed"):
        # The closed runner's pinned golden, checked wherever it runs.
        golden = harness(workload, {"spec": "fig5;mixes=2,5;reps=1", "jobs": PAR_JOBS}, "time",
                         run_dir / "golden", deadline)
        attempted += golden["cells_attempted"]
        if golden["doc_texts"][0] != GOLDEN_FIG5.read_bytes():
            problems.append("fig5;mixes=2,5;reps=1 differs from the committed golden")
            failed += golden["cells_attempted"]
    return attempted, failed, problems


# --- Metrics --------------------------------------------------------------------

def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(timed, setup_s):
    # Units repeat identical work, so their differences are interference from
    # other tenants of the host, which only ever adds time: report the
    # fastest unit.
    return {
        "wall_s": min(timed["unit_wall_s"]),
        "setup_s": setup_s,
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def sim_stats(docs):
    """Simulated-time totals from the documents (JobStats as serialized)."""
    reload_s = remote_s = reallocs = affine = 0.0
    open_affinity = []
    for doc in docs:
        parsed = json.loads(doc)
        if parsed.get("mode") == "open":
            open_affinity += [c["affinity_fraction"] for c in parsed["cells"]]
            continue
        for experiment in parsed["experiments"]:
            for job in experiment["jobs"]:
                stats = job["mean_stats"]
                reload_s += stats["reload_stall_s"]
                remote_s += stats.get("reload_remote_s", 0.0)
                reallocs += stats["reallocations"]
                affine += stats["affinity_dispatches"]
    affinity = statistics.mean(open_affinity) if open_affinity else (
        affine / reallocs if reallocs else 0.0)
    return {"cache.reload_stall_s": reload_s, "cache.affinity_fraction": affinity,
            "topology.reload_remote_s": remote_s, "machine.reallocations": reallocs}


def load_spans(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def per_layer(workload, traced, untraced, detached, counts, spans, jobs):
    """Per-layer metrics. Timings are per unit, from the traced run's spans;
    counts are per unit, from the counting run."""
    units = traced["units"]
    # Spans inside timed units; serve's cold and widened submits run once,
    # before the units, and are read separately.
    parents = {s["id"]: s["parent"] for s in spans}
    unit_ids = {s["id"] for s in spans if s["name"] == "unit"}

    def in_unit(span_id):
        while span_id != -1:
            if span_id in unit_ids:
                return True
            span_id = parents[span_id]
        return False

    by_name = {}
    for span in spans:
        if in_unit(span["id"]):
            by_name.setdefault(span["name"], []).append(span)
    cold = [s for s in spans if s["name"] == "serve.cold_submit"]

    def total_s(name):
        return sum(s["end_ns"] - s["start_ns"] for s in by_name.get(name, [])) * 1e-9

    def calls(name):
        return sum(s.get("count", 0) for s in by_name.get(name, []))

    cells = by_name.get("cell", [])
    cell_s = total_s("cell")
    run_s = total_s("engine.run")
    decide_s = total_s("sched.decide")
    sink_trace_s, sink_decision_s = total_s("sink.trace"), total_s("sink.decision")
    if workload == "open-rt-colors":
        # The open runner exposes only its progress seam: each cell is timed
        # whole, so the engine's share is the cell.
        run_s = cell_s
    engine_self = run_s - decide_s - sink_trace_s - sink_decision_s

    rounds = by_name.get("runner.round", [])
    round_wall = sum(r["round_wall_s"] for r in rounds)
    interval = sum(r["end_ns"] - r["start_ns"] for r in rounds) * 1e-9
    runs = by_name.get("runner.run", [])
    finish = 0.0
    for run in runs:
        ends = [r["end_ns"] for r in rounds if r["parent"] == run["id"]]
        if ends:
            finish += (run["end_ns"] - max(ends)) * 1e-9
    if workload == "open-rt-colors":
        fold = total_s("runner.run") - cell_s - total_s("opensys.calibrate")
        barrier_idle = 0.0
        parallel_eff = cell_s / max(1e-12, total_s("runner.run"))
    else:
        fold = interval - round_wall + finish
        barrier_idle = jobs * round_wall - cell_s if cells else 0.0
        parallel_eff = cell_s / (jobs * round_wall) if cells and round_wall > 0 else 0.0

    chunks = counts.get("engine.chunks", 0.0)
    events = counts.get("sim.events_run", 0.0)
    traced_wall = min(traced["unit_wall_s"])
    untraced_wall = min(untraced["unit_wall_s"])
    # Each cell's (and each respelling's) fastest repeat over the run's units.
    cell_best = list(untraced["cell_ms"].values())
    resubmit_best = list(untraced["resubmit_ms"].values())
    m = {
        "cpu_s": min(untraced["unit_cpu_s"]),
        "cell_ms.p50": quantile(cell_best, 0.5),
        "cell_ms.p90": quantile(cell_best, 0.9),
        "engine.self_s": engine_self / units,
        "engine.ns_per_chunk": engine_self / units * 1e9 / chunks if chunks else 0.0,
        "engine.ns_per_event": engine_self / units * 1e9 / events if events else 0.0,
        "engine.build_ms": total_s("engine.build") * 1e3 / len(cells) if cells else 0.0,
        "engine.chunks": chunks,
        "sim.events_run": events,
        "sim.events_cancelled": counts.get("sim.events_cancelled", 0.0),
        "sim.pool_high_water": counts.get("sim.pool_high_water", 0.0),
        "sched.decisions": counts.get("sched.decisions", 0.0),
        "sched.assignments": counts.get("sched.assignments", 0.0),
        "sched.balance_ticks": counts.get("sched.balance_ticks", 0.0),
        "sched.decision_s": decide_s / units,
        "sched.ns_per_decision": decide_s * 1e9 / calls("sched.decide")
        if calls("sched.decide") else 0.0,
        "sink.trace.records": counts.get("sink.trace.records", 0.0),
        "sink.trace.ns_per_record": sink_trace_s * 1e9 / calls("sink.trace")
        if calls("sink.trace") else 0.0,
        "sink.decision.records": counts.get("sink.decision.records", 0.0),
        "sink.decision.ns_per_record": sink_decision_s * 1e9 / calls("sink.decision")
        if calls("sink.decision") else 0.0,
        "obs.overhead_frac": untraced_wall / min(detached["unit_wall_s"]) - 1
        if detached else 0.0,
        "runner.rounds": len(rounds) / units,
        "runner.barrier_idle_s": barrier_idle / units,
        "runner.parallel_eff": parallel_eff,
        "runner.fold_s": fold / units,
        "runner.tojson_ms": total_s("runner.tojson") * 1e3 / units,
        "opensys.calibrate_ms": traced["calibrate_s"] * 1e3,
        "opensys.cells": len(cells) / units if workload == "open-rt-colors" else 0.0,
        "serve.hit_frac": counts["serve.hits"] / counts["serve.cells"]
        if counts.get("serve.cells") else 0.0,
        "serve.cold_submit_s": sum(s["end_ns"] - s["start_ns"] for s in cold) * 1e-9,
        "serve.warm_submit_ms": statistics.median(
            [(s["end_ns"] - s["start_ns"]) * 1e-6 for s in by_name["serve.resubmit"]])
        if "serve.resubmit" in by_name else 0.0,
        "serve.cache_bytes": counts.get("serve.cache_bytes", 0.0),
        "serve.resubmit_ms.p50": quantile(resubmit_best, 0.5) if resubmit_best else 0.0,
        "serve.resubmit_ms.p90": quantile(resubmit_best, 0.9) if resubmit_best else 0.0,
        "trace.overhead_frac": traced_wall / untraced_wall - 1,
    }
    m.update(sim_stats(traced["doc_texts"]))
    # Coverage: the unit's wall time against the layers' self times, with
    # worker-thread layers (cells, barrier idle) counted in wall terms.
    covered = (cell_s + barrier_idle) / jobs + fold + total_s("runner.tojson") \
        + total_s("opensys.calibrate")
    if workload == "serve-iterate":
        # A resubmit's rounds plus the serve layer's own work (probe, fold,
        # document, wire events) are all inside its span.
        covered = total_s("serve.resubmit")
    m["trace.uncovered_frac"] = 1 - covered / total_s("unit")
    return m


# --- Main -----------------------------------------------------------------------

def fingerprint(before, after, btype, build_info):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rev = "unknown"
    try:
        # A checkout without .git must not report an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              env=env)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except OSError:
        pass
    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            tree.update(str(path.relative_to(ROOT)).encode())
            tree.update(path.read_bytes())
    return {"cpu": cpu, "nproc": NPROC, "loadavg_before": before, "loadavg_after": after,
            "compiler": build_info["compiler"], "build_type": btype,
            "optimized": build_info["optimized"], "sanitized": build_info["sanitized"],
            "git_rev": rev, "src_sha256": tree.hexdigest()[:16],
            "python": platform.python_version()}


def run_workload(workload, seed, seconds, trace, deadline):
    run_dir = RUNS / f"{workload}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = specs(workload, seed)
    load_before = list(os.getloadavg())

    setup_s = setup_seconds(workload, inputs, run_dir, deadline)
    attempted, failed, problems = check_documents(workload, run_dir, deadline)

    if not trace:
        timed = harness(workload, inputs, "time", run_dir / "time", deadline, seconds=seconds)
        metrics = end_to_end(timed, setup_s)
        units = {"cells": len(timed["cell_ms"]), "units": timed["units"]}
    else:
        # Untraced and traced halves of the run, a detached share for the
        # observed workload, and two identical counting runs.
        share = seconds / (3 if workload == "mq-numa-observed" else 2)
        timed = harness(workload, inputs, "time", run_dir / "time", deadline, seconds=share)
        detached = None
        if workload == "mq-numa-observed":
            detached = harness(workload, inputs, "time", run_dir / "detached", deadline,
                               seconds=share, detached=True)
        traced = harness(workload, inputs, "trace", run_dir / "trace", deadline, seconds=share)
        count_jobs = PAR_JOBS if workload == "fig5-serial" else None
        counts = [harness(workload, inputs, "count", run_dir / f"count{i}", deadline,
                          jobs=count_jobs) for i in range(2)]
        if counts[0]["counts"] != counts[1]["counts"]:
            problems.append("per-layer counts differ between two runs at the same seed")
            failed += counts[1]["cells_attempted"]
        for extra in [traced] + counts + ([detached] if detached else []):
            attempted += extra["cells_attempted"]
            failed += extra["mismatches"]
            if extra["doc_texts"] != timed["doc_texts"]:
                problems.append("a traced, detached or counting document differs from the "
                                "untraced one")
                failed += extra["cells_attempted"]
        metrics = per_layer(workload, traced, timed, detached, counts[0]["counts"],
                            load_spans(run_dir / "trace" / "spans.jsonl"),
                            traced["jobs"])
        units = {"cells": len(timed["cell_ms"]), "traced_units": traced["units"],
                 "untraced_units": timed["units"]}

    if not timed["build"]["optimized"] or timed["build"]["sanitized"]:
        raise RuntimeError("refusing to report an unoptimized or sanitizer build")
    attempted += timed["cells_attempted"]
    failed += timed["mismatches"]
    if timed["mismatches"]:
        problems.append("a unit's document differed from the first unit's")
    fp = fingerprint(load_before, list(os.getloadavg()), build_type(), timed["build"])
    units_map = dict(END_TO_END if not trace else PER_LAYER)
    report = {"workload": workload, "seed": seed, "trace": trace, "host": fp,
              "samples": units, "problems": problems,
              "metrics": {k: {"value": v, "unit": units_map[k]} for k, v in metrics.items()}}
    (run_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    for name, value in metrics.items():
        print(f"{workload:18s} {name:28s} {value:16.6f} {units_map[name]}")
    print(json.dumps({"report": report}))
    for problem in problems:
        log(f"check failed: {problem}")
    return {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
            "metrics": report["metrics"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--print-digests", action="store_true",
                        help="print the default-seed document digests and exit")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    deadline = Deadline()
    if not build(deadline) or not BINARY.exists():
        log(f"build failed; see {BUILD.parent / 'build.log'}")
        return 1
    btype = build_type()
    if btype not in ("Release", "RelWithDebInfo"):
        log(f"refusing to measure a {btype or 'unoptimized'} build")
        return 3
    deadline = Deadline()  # the first build may be long; runs start the clock here

    if args.print_digests:
        # Recorded with the timed configuration: sinks attached, the
        # workload's own thread count.
        out = {}
        for workload in WORKLOADS:
            for key, inputs, _ in default_checks(workload):
                res = harness(workload, inputs, "time", RUNS / "digests" / key.replace("/", "_"),
                              deadline)
                out[key] = [sha256(doc) for doc in res["doc_texts"]]
        print(json.dumps(out, indent=1))
        return 0

    if args.workload == "all":
        # Each workload in its own process.
        results = {}
        for workload in WORKLOADS:
            proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], stdout=subprocess.PIPE,
                                  text=True)
            if proc.returncode != 0:
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            results[workload] = json.loads(lines[-1])
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "metrics": {w: r["metrics"] for w, r in results.items()}}))
        return 0

    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as err:
        log(f"benchmark failed: {err}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
