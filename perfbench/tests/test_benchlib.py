"""Tests for the benchmark's statistics, fingerprints, provenance and
comparison code. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
import benchlib  # noqa: E402
import run  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0]
        q1, med, q3 = benchlib.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, statistics.median(values))

    def test_single_sample_is_its_own_quartiles(self):
        self.assertEqual(benchlib.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_summarize_reports_count_and_extremes(self):
        s = benchlib.summarize([5.0, 1.0, 3.0])
        self.assertEqual((s["median"], s["min"], s["max"], s["n"]), (3.0, 1.0, 5.0, 3))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.quartiles([])


class FingerprintTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        root = self.dir.name
        os.makedirs(os.path.join(root, "plots"))
        for name, body in [("report.txt", b"report"), ("plots/a.dat", b"1 2\n"),
                           ("plots/b.gp", b"plot")]:
            with open(os.path.join(root, name), "wb") as f:
                f.write(body)

    def tearDown(self):
        self.dir.cleanup()

    def test_directories_expand_to_their_files(self):
        fp = benchlib.fingerprint(self.dir.name, ["report.txt", "plots"])
        self.assertEqual(sorted(fp), ["plots/a.dat", "plots/b.gp", "report.txt"])
        self.assertTrue(all(len(v) == 64 for v in fp.values()))

    def test_missing_outputs_map_to_none(self):
        fp = benchlib.fingerprint(self.dir.name, ["sweep.json"])
        self.assertEqual(fp, {"sweep.json": None})

    def test_one_changed_byte_changes_the_fingerprint(self):
        before = benchlib.fingerprint(self.dir.name, ["report.txt", "plots"])
        with open(os.path.join(self.dir.name, "plots/a.dat"), "wb") as f:
            f.write(b"1 3\n")
        after = benchlib.fingerprint(self.dir.name, ["report.txt", "plots"])
        self.assertEqual(benchlib.fingerprint_diff(before, after), ["plots/a.dat"])
        self.assertNotEqual(benchlib.digest(before), benchlib.digest(after))

    def test_digest_ignores_key_order(self):
        a = {"x": "1", "y": "2"}
        b = {"y": "2", "x": "1"}
        self.assertEqual(benchlib.digest(a), benchlib.digest(b))

    def test_diff_reports_keys_on_one_side_only(self):
        self.assertEqual(benchlib.fingerprint_diff({"a": "1"}, {"a": "1", "b": "2"}), ["b"])


class ProvenanceTest(unittest.TestCase):
    def test_host_stamp_names_the_machine(self):
        h = benchlib.host_stamp()
        self.assertGreater(h["nproc"], 0)
        self.assertTrue(h["cpu_model"])
        self.assertGreater(h["mem_total_bytes"], 0)

    def test_source_digest_follows_the_sources(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "crates", "x"))
            os.makedirs(os.path.join(root, "crates", "x", "target"))
            src = os.path.join(root, "crates", "x", "lib.rs")
            with open(src, "w") as f:
                f.write("fn a() {}")
            first = benchlib.source_digest(root)
            with open(os.path.join(root, "crates", "x", "target", "out.o"), "w") as f:
                f.write("build output is not source")
            self.assertEqual(benchlib.source_digest(root), first)
            with open(src, "w") as f:
                f.write("fn b() {}")
            self.assertNotEqual(benchlib.source_digest(root), first)

    def test_provenance_outside_git_has_no_commit(self):
        with tempfile.TemporaryDirectory() as root:
            p = benchlib.provenance(root)
        self.assertIsNone(p["commit"])
        self.assertIsNone(p["dirty"])
        self.assertEqual(p["profile"], "release")


SPEC = {
    "end_to_end": [
        {"name": "chunks_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
    ],
    "per_layer": [{"name": "cdn.serve.self_s", "unit": "s", "better": "lower"}],
}


def record(host, **metrics):
    return {
        "workload": "sweep_t2",
        "provenance": {"host": host},
        "metrics": {k: {"value": v} for k, v in metrics.items()},
    }


class CompareTest(unittest.TestCase):
    HOST = {"nproc": 2, "cpu_model": "cpu", "mem_total_bytes": 1 << 34}

    def test_refuses_results_from_different_hosts(self):
        other = dict(self.HOST, nproc=4)
        with self.assertRaises(benchlib.HostMismatch):
            benchlib.compare(record(self.HOST, setup_s=1.0), record(other, setup_s=1.0), SPEC)

    def test_flags_only_regressions_beyond_the_bound(self):
        base = record(self.HOST, chunks_per_s=100.0, setup_s=1.0)
        new = record(self.HOST, chunks_per_s=85.0, setup_s=1.1)
        rows = {r[0]: r for r in benchlib.compare(base, new, SPEC)}
        self.assertAlmostEqual(rows["chunks_per_s"][4], 0.15)
        self.assertTrue(rows["chunks_per_s"][6])
        self.assertAlmostEqual(rows["setup_s"][4], 0.1)
        self.assertFalse(rows["setup_s"][6])

    def test_improvements_and_unbounded_metrics_never_regress(self):
        base = record(self.HOST, chunks_per_s=100.0, **{"cdn.serve.self_s": 1.0})
        new = record(self.HOST, chunks_per_s=150.0, **{"cdn.serve.self_s": 3.0})
        rows = {r[0]: r for r in benchlib.compare(base, new, SPEC)}
        self.assertLess(rows["chunks_per_s"][4], 0)
        self.assertFalse(rows["chunks_per_s"][6])
        self.assertFalse(rows["cdn.serve.self_s"][6])


class RunScriptTest(unittest.TestCase):
    def test_warnings_that_lose_work_fail_the_run(self):
        self.assertIsNone(run.run_failure(0, "simulating 10 sessions ...\n"))
        lost = "warning: 1 shard(s) lost; the dataset covers the surviving shards' servers only"
        self.assertEqual(run.run_failure(0, lost + "\n"), lost)
        self.assertIsNotNone(run.run_failure(0, "warning: telemetry spill degraded to in-RAM: x"))
        self.assertIn("exit code 1", run.run_failure(1, "error: bad\n"))

    def test_metrics_are_the_median_of_per_world_medians(self):
        runs = run.Runs(run.WORKLOADS["sweep_t2"], "streamlab", "unused")
        worlds = [{"seed": 2, "chunks": 1000}, {"seed": 3, "chunks": 2000}]

        def rec(kind, seed, wall, rss, ok=True):
            return {"kind": kind, "seed": seed, "wall_s": wall, "peak_rss_bytes": rss, "ok": ok}

        runs.records = [
            rec("setup", 2, 0.3, 1), rec("setup", 3, 0.5, 1),
            rec("measured", 2, 1.0, 100), rec("measured", 2, 2.0, 100),
            rec("measured", 2, 4.0, 100), rec("measured", 3, 1.0, 300),
            rec("measured", 3, 0.1, 900, ok=False),
        ]
        metrics, summary = run.end_to_end(runs, worlds)
        # World 2 runs at 1000, 500 and 250 chunks/s (median 500), world 3
        # at 2000; the failed run counts for neither.
        self.assertEqual(metrics["chunks_per_s"]["value"], 1250.0)
        self.assertAlmostEqual(metrics["setup_s"]["value"], 0.4)
        self.assertEqual(metrics["peak_rss_bytes"]["value"], 200)
        self.assertEqual([s["n"] for s in summary["chunks_per_s"]["worlds"]], [3, 1])

    def test_a_world_without_runs_leaves_its_metrics_unmeasured(self):
        runs = run.Runs(run.WORKLOADS["sweep_t2"], "streamlab", "unused")
        runs.records = [{"kind": "measured", "seed": 2, "wall_s": 1.0,
                         "peak_rss_bytes": 5, "ok": True}]
        metrics, _ = run.end_to_end(runs, [{"seed": 2, "chunks": 10}, {"seed": 3, "chunks": 10}])
        self.assertEqual(metrics, {})

    def test_each_seed_runs_two_worlds_of_its_own(self):
        self.assertEqual(run.worlds(0), [0, 1])
        self.assertEqual(run.worlds(1008), [2016, 2017])
        seen = [s for seed in range(50) for s in run.worlds(seed)]
        self.assertEqual(len(seen), len(set(seen)))

    def test_cli_args_set_sessions_seed_and_directories(self):
        w = run.WORKLOADS["sweep_spill_t2"]
        args = run.cli_args(w, 7, "OUT", "SPILL", 1234)
        self.assertEqual(args[args.index("--sessions") + 1], "1234")
        self.assertEqual(args[args.index("--seed") + 1], "7")
        self.assertEqual(args[args.index("--spill-dir") + 1], "SPILL")
        plain = run.cli_args(run.WORKLOADS["sweep_t2"], 7, "OUT", "SPILL", 1234)
        self.assertNotIn("--spill-dir", plain)
        # The two sweeps differ only by spilling.
        self.assertEqual(args[: len(plain)], plain)


if __name__ == "__main__":
    unittest.main()
