"""Shared pieces of the streamlab benchmark: statistics, output
fingerprints, provenance stamps and result comparison.

Kept free of process launching so the tests can exercise it directly.
"""

import hashlib
import json
import os
import platform
import statistics
import subprocess

# Result files and baselines carry this schema number.
SCHEMA = 1


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) of `values`, as statistics.quantiles(n=4) gives
    them; a single value is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values):
    """Median, quartiles, extremes and sample count of `values`."""
    q1, _, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


# --------------------------------------------------------------------------
# Output fingerprints
# --------------------------------------------------------------------------

def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fingerprint(root, entries):
    """Map each output under `root` to the SHA-256 of its bytes.

    `entries` names files and directories relative to `root`; a directory
    contributes every regular file beneath it, keyed by its relative path.
    A missing entry maps to None, so it never matches a present one.
    """
    out = {}
    for entry in entries:
        path = os.path.join(root, entry)
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for name in sorted(filenames):
                    full = os.path.join(dirpath, name)
                    out[os.path.relpath(full, root)] = sha256_file(full)
        elif os.path.isfile(path):
            out[entry] = sha256_file(path)
        else:
            out[entry] = None
    return out


def digest(fp):
    """One SHA-256 over a fingerprint map, independent of key order."""
    h = hashlib.sha256()
    for key in sorted(fp):
        h.update(f"{key}\0{fp[key]}\n".encode())
    return h.hexdigest()


def fingerprint_diff(expected, actual):
    """Keys whose hashes differ (or that only one side has), sorted."""
    keys = set(expected) | set(actual)
    return sorted(k for k in keys if expected.get(k) != actual.get(k))


# --------------------------------------------------------------------------
# Provenance
# --------------------------------------------------------------------------

def _read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def _run(cmd, cwd):
    try:
        r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def host_stamp():
    """What identifies the machine: results from different hosts are not
    comparable."""
    cpu = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    mem = 0
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            mem = int(line.split()[1]) * 1024
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or "unknown",
        "mem_total_bytes": mem,
    }


# Directories of the checkout that hold sources (everything else is
# build output or benchmark scratch).
SOURCE_ROOTS = ("Cargo.toml", "Cargo.lock", "crates", "src", "perfbench")
SKIP_DIRS = {"target", ".git", "__pycache__"}


def source_digest(root):
    """SHA-256 over the checkout's source files, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in SOURCE_ROOTS:
        path = os.path.join(root, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in SKIP_DIRS and not d.startswith(".")
                )
                files.extend(os.path.join(dirpath, n) for n in sorted(filenames))
        for f in files:
            h.update(os.path.relpath(f, root).encode() + b"\0")
            h.update(sha256_file(f).encode() + b"\n")
    return h.hexdigest()


def provenance(root, profile="release"):
    """The stamp every result carries."""
    commit = _run(["git", "rev-parse", "HEAD"], root)
    status = _run(["git", "status", "--porcelain"], root) if commit else None
    return {
        "host": host_stamp(),
        "commit": commit,
        "dirty": None if commit is None else bool(status),
        "source_sha256": source_digest(root),
        "profile": profile,
        "rustc": _run(["rustc", "-V"], root),
        "kernel": platform.release(),
        "python": platform.python_version(),
    }


# --------------------------------------------------------------------------
# Comparison
# --------------------------------------------------------------------------

class HostMismatch(Exception):
    """Two results come from different machines."""


def _worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def compare(base, new, spec):
    """Compare two result records of one workload metric by metric.

    Refuses (HostMismatch) when their host stamps differ. `spec` is the
    parsed BENCHMARK.json. Returns one row per metric both carry:
    (name, unit, base, new, worse_by, bound, regressed).
    """
    hb, hn = base["provenance"]["host"], new["provenance"]["host"]
    if hb != hn:
        raise HostMismatch(
            f"refusing to compare results from different hosts: {hb} vs {hn}"
        )
    if base["workload"] != new["workload"]:
        raise ValueError(f"different workloads: {base['workload']} vs {new['workload']}")
    rows = []
    for m in spec["end_to_end"] + spec["per_layer"]:
        name = m["name"]
        if name not in base["metrics"] or name not in new["metrics"]:
            continue
        b = base["metrics"][name]["value"]
        n = new["metrics"][name]["value"]
        worse = _worse_by(b, n, m["better"])
        bound = m.get("bound")
        regressed = bound is not None and worse > bound
        rows.append((name, m["unit"], b, n, worse, bound, regressed))
    return rows


def load_json(path):
    with open(path) as f:
        return json.load(f)
