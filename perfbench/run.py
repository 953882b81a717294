#!/usr/bin/env python3
"""Benchmark `streamlab` as users run it.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a streamlab checkout. The script builds the CLI and
the tracer (`perfbench/tracer`) in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), draws the worlds of seed N (see `worlds`), then:

* with `--trace 0`, times the workload's set-up (its command with
  `--sessions 1`) several times, then measures the command as a closed
  loop of child processes for S seconds — one run at a time, each a fresh
  process with empty output and spill directories, the next started when
  the previous one exits;
* with `--trace 1`, runs the same closed loop, then replays the workload
  in-process through the tracer, which times every call into a layer.

Every run's outputs are fingerprinted and checked (see README.md). The
last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. `--workload all`
runs every workload in turn, prints a combined table, and ends with one
object whose `workloads` holds each workload's result. The full record —
provenance, every run, fingerprints — goes to
`.bench_work/results/<workload>-seed<N>-trace<T>.json`.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

WORK = ".bench_work"

RUN_OUTPUTS = ["report.txt", "figures.json", "chunks.csv", "sessions.csv", "plots"]
SWEEP_OUTPUTS = ["sweep.json"]
SWEEP_ARGS = ["sweep", "--scale", "small", "--sessions", "30000", "--seeds", "1", "--threads", "2"]

# Why each workload exists is recorded in BENCHMARK.json and README.md.
# `--sessions` is nominal: each world runs the session count at which it
# simulates about `chunks` chunk requests (see `size_and_reference`).
WORKLOADS = {
    "run_small_t1": {
        "args": ["run", "--scale", "small", "--sessions", "6000", "--threads", "1"],
        "chunks": 80_000,
        "spill": False,
        "outputs": RUN_OUTPUTS,
    },
    "sweep_t2": {"args": SWEEP_ARGS, "chunks": 400_000, "spill": False, "outputs": SWEEP_OUTPUTS},
    # Identical to sweep_t2 except that telemetry spills to segments.
    "sweep_spill_t2": {"args": SWEEP_ARGS, "chunks": 400_000, "spill": True,
                       "outputs": SWEEP_OUTPUTS},
}

# Worlds per benchmark seed (see `worlds`).
WORLDS_PER_SEED = 2
# Set-up runs per world; set-up time is their median.
SETUP_REPEATS = 3
# A run printing one of these on stderr lost work even if it exited 0.
FAILURE_MARKERS = ("partial results", "shard(s) lost", "spill degraded")
# No single child may outlive this; the whole invocation must end in 180 s.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a failed run)."""


def log(msg):
    print(msg, flush=True)


def worlds(seed):
    """The `streamlab --seed` values benchmark seed `seed` runs.

    A streamlab seed draws a whole world — catalog, population, fleet —
    and worlds differ in peak memory by up to a quarter at the same work.
    Each benchmark seed therefore runs two consecutive worlds and reports
    the median of their per-world medians (their mean), which narrows that
    world-to-world spread. Distinct benchmark seeds never share a world.
    """
    return [seed * WORLDS_PER_SEED + i for i in range(WORLDS_PER_SEED)]


# --------------------------------------------------------------------------
# Building
# --------------------------------------------------------------------------

def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def check_checkout():
    for path in ("BENCHMARK.json", "Cargo.toml", "crates/core/Cargo.toml",
                 "perfbench/tracer/Cargo.toml"):
        if not os.path.isfile(path):
            raise BenchError(f"{path} not found: run from the root of a streamlab checkout")


def cargo_build(args):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                       env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError(f"cargo build {' '.join(args)} failed ({r.returncode})")


def build():
    cargo_build(["-p", "streamlab", "--bin", "streamlab"])
    cargo_build(["--manifest-path", "perfbench/tracer/Cargo.toml"])
    cli = os.path.join(target_dir(), "release", "streamlab")
    tracer = os.path.join(target_dir(), "release", "perfbench-tracer")
    for path in (cli, tracer):
        if not os.path.isfile(path):
            raise BenchError(f"build produced no {path}")
    return os.path.abspath(cli), os.path.abspath(tracer)


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def launch(argv, log_dir, name):
    """Run argv to completion; return (wall_s, rusage, exit_code, stderr).
    Wall time runs from launch until the child is reaped."""
    out_path = os.path.join(log_dir, name + ".stdout")
    err_path = os.path.join(log_dir, name + ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, lambda: os.kill(proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    # Reaped by wait4 above; tell Popen so it does not try again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, errors="replace") as f:
        stderr = f.read()
    return wall, usage, proc.returncode, stderr


def run_failure(code, stderr):
    """Why a finished run counts as failed, or None."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    for line in stderr.splitlines():
        if line.startswith("warning:") and any(m in line for m in FAILURE_MARKERS):
            return line.strip()
    return None


def cli_args(w, seed, out, spill, sessions=None):
    args = list(w["args"])
    if sessions is not None:
        args[args.index("--sessions") + 1] = str(sessions)
    args += ["--seed", str(seed), "--out", out]
    if w["spill"]:
        args += ["--spill-dir", spill]
    return args


def tracer_json(argv):
    r = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        raise BenchError(f"{argv[1]} failed: {r.stderr.strip()[-300:]}")
    return json.loads(r.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# World sizing and the in-RAM reference
# --------------------------------------------------------------------------

def size_and_reference(tracer, w, seed, work):
    """For one world: the session count it runs, the chunk requests that
    run simulates, and the digest of the sweep.json an unspilled
    in-process run writes.

    How many chunks a session watches depends on the world (the catalog's
    video lengths), so at a fixed session count a run's work varies twofold
    between worlds. Each world instead runs the session count at which it
    simulates about the workload's target chunk count. Cached per tracer
    build: the result depends only on the program and the arguments.
    """
    nominal = cli_args(dict(w, spill=False), seed, "-", "-")
    key = benchlib.digest({"tracer": benchlib.sha256_file(tracer),
                           "args": " ".join(nominal), "chunks": str(w["chunks"])})
    cache_dir = os.path.join(WORK, "cache")
    os.makedirs(cache_dir, exist_ok=True)
    cache = os.path.join(cache_dir, f"reference-{key}.json")
    if os.path.isfile(cache):
        return dict(benchlib.load_json(cache), seed=seed)
    sweep_json = os.path.join(work, "reference-sweep.json")
    if os.path.exists(sweep_json):
        os.remove(sweep_json)
    argv = [tracer, "reference", "--target-chunks", str(w["chunks"]),
            "--sweep-json", sweep_json, "--"]
    ref = tracer_json(argv + nominal)
    ref["seed"] = seed
    ref["sweep_json"] = benchlib.sha256_file(sweep_json) if os.path.isfile(sweep_json) else None
    with open(cache + ".tmp", "w") as f:
        json.dump(ref, f)
    os.replace(cache + ".tmp", cache)
    return ref


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------

class Runs:
    """Every CLI run an invocation makes, with the correctness checks."""

    def __init__(self, w, cli, work):
        self.w = w
        self.cli = cli
        self.work = work
        self.records = []
        self.first_fp = {}
        self.errors = []

    def check_outputs(self, world, out_dir):
        fp = benchlib.fingerprint(out_dir, self.w["outputs"])
        missing = [k for k, v in fp.items() if v is None]
        if missing:
            return fp, f"missing outputs: {', '.join(missing)}"
        if world["sweep_json"] and fp["sweep.json"] != world["sweep_json"]:
            return fp, "sweep.json differs from the in-RAM reference run"
        first = self.first_fp.setdefault(world["seed"], fp)
        if fp != first:
            diff = benchlib.fingerprint_diff(first, fp)
            return fp, f"outputs differ from the first run: {', '.join(diff[:5])}"
        return fp, None

    def run(self, kind, world):
        out = fresh_dir(os.path.join(self.work, "out"))
        spill = fresh_dir(os.path.join(self.work, "spill"))
        sessions = 1 if kind == "setup" else world["sessions"]
        argv = [self.cli] + cli_args(self.w, world["seed"], out, spill, sessions)
        n = len(self.records)
        log_dir = os.path.join(self.work, "logs")
        wall, usage, code, stderr = launch(argv, log_dir, f"{n:03d}-{kind}-{world['seed']}")
        reason = run_failure(code, stderr)
        digest = None
        if reason is None and kind == "measured":
            fp, reason = self.check_outputs(world, out)
            digest = benchlib.digest(fp)
        rec = {"kind": kind, "seed": world["seed"], "sessions": sessions, "wall_s": wall,
               "peak_rss_bytes": usage.ru_maxrss * 1024,
               "user_s": usage.ru_utime, "sys_s": usage.ru_stime,
               "ok": reason is None, "reason": reason, "outputs_digest": digest}
        self.records.append(rec)
        if reason:
            self.errors.append(f"{kind} run {n} (seed {world['seed']}): {reason}")
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(spill, ignore_errors=True)
        return rec

    def ok(self, kind, seed):
        return [r for r in self.records if r["kind"] == kind and r["seed"] == seed and r["ok"]]

    def failed(self):
        return sum(1 for r in self.records if not r["ok"])


def closed_loop(runs, world_list, seconds):
    """One client: each run starts when the previous one exits, cycling
    through the worlds, until `seconds` have passed."""
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        runs.run("measured", world_list[i % len(world_list)])
        i += 1
        if time.perf_counter() >= deadline and i >= len(world_list):
            return


def end_to_end(runs, world_list):
    """Each metric is the median over worlds of its per-world median."""
    per_world = {"chunks_per_s": [], "setup_s": [], "peak_rss_bytes": []}
    units = {"chunks_per_s": "1/s", "setup_s": "s", "peak_rss_bytes": "bytes"}
    for world in world_list:
        measured = runs.ok("measured", world["seed"])
        setups = runs.ok("setup", world["seed"])
        if measured:
            rates = [world["chunks"] / r["wall_s"] for r in measured]
            per_world["chunks_per_s"].append(benchlib.summarize(rates))
            per_world["peak_rss_bytes"].append(
                benchlib.summarize([r["peak_rss_bytes"] for r in measured]))
        if setups:
            per_world["setup_s"].append(benchlib.summarize([r["wall_s"] for r in setups]))
    summary = {}
    for name, worlds_summary in per_world.items():
        if len(worlds_summary) == len(world_list):
            summary[name] = {
                "value": statistics.median(s["median"] for s in worlds_summary),
                "unit": units[name],
                "worlds": worlds_summary,
            }
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in summary.items()}
    return metrics, summary


def replay(tracer, w, world, work, untraced_wall):
    """The traced replay of one world: its outputs' fingerprint, the
    per-layer metrics, and the tracer's raw report."""
    out = fresh_dir(os.path.join(work, "replay-out"))
    spill = fresh_dir(os.path.join(work, "replay-spill"))
    probe_spill = fresh_dir(os.path.join(work, "probe-spill"))
    spans = os.path.join(work, "spans.tsv")
    argv = [tracer, "replay", "--spans", spans, "--probe-spill-dir", probe_spill, "--"]
    rep = tracer_json(argv + cli_args(w, world["seed"], out, spill, world["sessions"]))
    fp = benchlib.fingerprint(out, w["outputs"])
    for d in (out, spill, probe_spill):
        shutil.rmtree(d, ignore_errors=True)

    m = {}
    for layer, t in rep["layers"].items():
        m[f"{layer}.self_s"] = (t["self_s"], "s")
        m[f"{layer}.calls"] = (t["calls"], "count")
        m[f"{layer}.allocs"] = (t["allocs"], "count")
        m[f"{layer}.alloc_bytes"] = (t["alloc_bytes"], "bytes")
    c = rep["counters"]

    def ratio(a, b):
        return a / b if b else 0.0

    m["sim.queue.peak_len"] = (c["queue_peak_len"], "count")
    m["cdn.serve.ram_hit_ratio"] = (ratio(c["ram_hits"], c["serves"]), "ratio")
    m["cdn.serve.miss_ratio"] = (ratio(c["misses"], c["serves"]), "ratio")
    m["cdn.serve.retry_ratio"] = (ratio(c["retries"], c["serves"]), "ratio")
    m["net.transfer.retx_ratio"] = (ratio(c["retx"], c["segments"]), "ratio")
    m["telemetry.seal.segments"] = (c["sealed_segments"], "count")
    m["telemetry.seal.bytes"] = (c["sealed_bytes"], "bytes")
    m["telemetry.export.write_calls"] = (c["export_write_calls"], "count")
    m["telemetry.export.bytes"] = (c["export_bytes"], "bytes")
    m["core.scheduler.steals"] = (rep["scheduler"]["steals"], "count")
    m["core.scheduler.idle_s"] = (rep["scheduler"]["idle_s"], "s")
    m["trace.unattributed_s"] = (rep["unattributed_s"], "s")
    m["trace.overhead_ratio"] = (ratio(rep["wall_s"], untraced_wall), "ratio")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    return fp, metrics, rep


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

def describe_host(prov):
    h = prov["host"]
    commit = prov["commit"][:12] if prov["commit"] else "no git"
    state = "" if prov["dirty"] is None else (" dirty" if prov["dirty"] else " clean")
    return (f"host: {h['nproc']} cpus, {h['cpu_model']}, "
            f"{h['mem_total_bytes'] / 2**30:.1f} GiB; commit {commit}{state}; "
            f"source {prov['source_sha256'][:12]}; {prov['profile']}; {prov['rustc']}")


def print_summary(name, args, prov, world_list, runs, summary):
    attempted = len(runs.records)
    failed = runs.failed()
    seeds = ", ".join(f"{x['seed']} ({x['sessions']} sessions, {x['chunks']} chunks)"
                      for x in world_list)
    log(f"== perfbench {name}: seed {args.seed}, closed loop of one client "
        f"for {args.seconds:g} s, trace {'on' if args.trace else 'off'} ==")
    log(describe_host(prov))
    log(f"worlds: {seeds}")
    for key, s in summary.items():
        parts = "; ".join(f"median {x['median']:.6g} of {x['n']} (q1 {x['q1']:.6g}, "
                          f"q3 {x['q3']:.6g})" for x in s["worlds"])
        log(f"  {key:<15} {s['value']:>14.6g} {s['unit']:<6} per world: {parts}")
    ratio = failed / attempted if attempted else 0.0
    log(f"  {'failure_ratio':<15} {ratio:>14.6g} {'ratio':<6} {failed} of {attempted} runs failed")
    for seed, fp in runs.first_fp.items():
        log(f"  outputs of seed {seed}: digest {benchlib.digest(fp)} ({len(fp)} files)")
    for e in runs.errors:
        log(f"  error: {e}")


def measure(name, args, spec, cli, tracer, prov):
    """One workload: measure, check, write its record, print its summary,
    and return the result object."""
    w = WORKLOADS[name]
    work = os.path.join(WORK, name)
    fresh_dir(os.path.join(work, "logs"))

    # The traced run replays the first world, so its untraced loop (which
    # gives the CLI fingerprints and the overhead baseline) runs only that.
    seeds = worlds(args.seed)[:1] if args.trace else worlds(args.seed)
    world_list = [size_and_reference(tracer, w, s, work) for s in seeds]
    runs = Runs(w, cli, work)
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            for world in world_list:
                runs.run("setup", world)
    closed_loop(runs, world_list, args.seconds)
    metrics, summary = end_to_end(runs, world_list)

    record = {
        "schema": benchlib.SCHEMA,
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "command": ["streamlab"] + cli_args(w, "SEED", "OUT", "SPILL", "SESSIONS"),
        "worlds": world_list,
        "runs": runs.records,
        "fingerprints": {str(k): v for k, v in runs.first_fp.items()},
        "summary": summary,
    }
    rep = None
    if args.trace:
        world = world_list[0]
        ok = runs.ok("measured", world["seed"])
        untraced = statistics.median(r["wall_s"] for r in ok) if ok else 0.0
        try:
            fp, metrics, rep = replay(tracer, w, world, work, untraced)
        except BenchError as e:
            runs.errors.append(str(e))
            metrics = {}
    if rep is not None:
        cli_fp = runs.first_fp.get(world["seed"])
        record["replay"] = {"seed": world["seed"], "fingerprints": fp, "wall_s": rep["wall_s"],
                            "untraced_wall_s": untraced, "spans": rep["spans"],
                            "spans_file": os.path.join(work, "spans.tsv"),
                            "layers": rep["layers"], "counters": rep["counters"]}
        if cli_fp is not None and fp != cli_fp:
            diff = benchlib.fingerprint_diff(cli_fp, fp)
            runs.errors.append(f"traced replay outputs differ from the CLI's: {', '.join(diff[:5])}")
        if rep["counters"]["chunks"] != world["chunks"]:
            runs.errors.append(f"replay simulated {rep['counters']['chunks']} chunks, "
                               f"reference {world['chunks']}")
        if not rep["coverage_exact"]:
            runs.errors.append("layer self times plus unattributed time miss the traced wall time")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not runs.errors:
        runs.errors.append(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": not runs.errors,
        "attempted": len(runs.records),
        "failed": runs.failed(),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted if m["name"] in metrics},
    }
    record.update(errors=runs.errors, correct=result["correct"], metrics=result["metrics"])
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    print_summary(name, args, prov, world_list, runs, summary)
    if rep is not None:
        same = "match" if fp == runs.first_fp.get(world_list[0]["seed"]) else "DIFFER"
        log(f"  traced replay of seed {world_list[0]['seed']}: {rep['wall_s']:.3f} s wall, "
            f"{rep['spans']} spans, outputs {same}")
        for metric, v in result["metrics"].items():
            log(f"    {metric:<34} {v['value']:>16.6g} {v['unit']}")
    log(f"  record: {path}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or `all` to run every workload in turn")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        raise BenchError("--seed must be non-negative")

    check_checkout()
    spec = benchlib.load_json("BENCHMARK.json")
    cli, tracer = build()
    prov = benchlib.provenance(os.getcwd())
    if args.workload != "all":
        print(json.dumps(measure(args.workload, args, spec, cli, tracer, prov)))
        return

    results = {name: measure(name, args, spec, cli, tracer, prov) for name in WORKLOADS}
    log("== perfbench: every workload ==")
    for name, r in results.items():
        for metric, v in r["metrics"].items():
            log(f"  {name:<15} {metric:<34} {v['value']:>16.6g} {v['unit']}")
        ratio = r["failed"] / r["attempted"] if r["attempted"] else 0.0
        log(f"  {name:<15} {'failure_ratio':<34} {ratio:>16.6g} ratio "
            f"({r['failed']} of {r['attempted']} runs failed; correct: {r['correct']})")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
