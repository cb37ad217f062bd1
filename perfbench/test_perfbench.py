#!/usr/bin/env python3
"""Small-scale self-test of the benchmark: the export splitter, the
reference path, interval renumbering, the counter readers and the
repeatability of the exact counts.

    python3 perfbench/test_perfbench.py

Builds like run.py does and works in .bench_build/selftest-<pid>.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL = {"algorithm": "sample-and-hold", "entries": "3000",
         "threshold": "20000", "interval": "1"}
EXACT = ["core.mem_accesses_per_pkt", "common.allocs_per_pkt",
         "reporting.allocs_per_report", "reporting.bytes_per_interval",
         "flowmem.occupancy", "core.shard_imbalance"]


def tool(*args):
    return run.run_checked([run.TOOL, *map(str, args)], WORK, "perfbench_tool")


def reference(out, shards, style, rounds=1, **overrides):
    config = dict(SMALL, **overrides)
    args = ["reference", "--in", PCAP, "--out", out, "--shards", shards,
            "--style", style, "--rounds", rounds]
    for key, value in config.items():
        args += ["--" + key, value]
    return json.loads(tool(*args))


def split(path):
    return [json.loads(line) for line in tool("split", "--in", path).split("\n")
            if line]


def measure(*extra, config=SMALL):
    args = run.measure_args(config, PCAP) + list(extra)
    child = run.Child(args, WORK, "measure")
    run.reap([child])
    return child


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


class PerfbenchSelfTest(unittest.TestCase):

    def test_split_export_finds_every_report_and_trailer(self):
        out = os.path.join(WORK, "fleet0.bin")
        child = measure("--fleet-size", "3", "--device-id", "0",
                        "--metrics=" + os.path.join(WORK, "fleet0.jsonl"),
                        "--export", out)
        self.assertEqual(child.status, 0)
        entries = split(out)
        self.assertEqual(sum(e["bytes"] for e in entries),
                         os.path.getsize(out))
        self.assertEqual([e["interval"] for e in entries],
                         list(range(len(entries))))
        self.assertTrue(all(e["trailer_bytes"] > 0 for e in entries))
        self.assertTrue(all(e["shards"] == 1 for e in entries))
        plain = os.path.join(WORK, "plain.bin")
        reference(plain, 1, "measure")
        self.assertTrue(all(e["trailer_bytes"] == 0 for e in split(plain)))

    def test_split_export_rejects_a_truncated_file(self):
        plain = os.path.join(WORK, "plain.bin")
        reference(plain, 1, "measure")
        cut = os.path.join(WORK, "cut.bin")
        with open(cut, "wb") as handle:
            handle.write(read(plain)[:-7])
        result = subprocess.run([run.TOOL, "split", "--in", cut],
                                capture_output=True)
        self.assertEqual(result.returncode, 1)

    def test_reference_matches_ndtm_exports(self):
        for shards in ("1", "3"):
            expected = os.path.join(WORK, f"ref{shards}.bin")
            summary = reference(expected, shards, "measure")
            got = os.path.join(WORK, f"ndtm{shards}.bin")
            child = measure("--shards", shards, "--export", got)
            self.assertEqual(child.status, 0)
            self.assertEqual(read(got), read(expected), f"--shards {shards}")
            problems = []
            setup = run.Setup()
            setup.summary, setup.rounds = summary, 1
            run.check_measure(child, setup, problems)
            self.assertEqual(problems, [])

    def test_misread_flag_fails_the_flow_count_check(self):
        summary = reference(os.path.join(WORK, "ref.bin"), 1, "measure")
        # strtoull reads "2e4" as 2: ndtm runs a different program.
        misread = dict(SMALL, threshold="2e4")
        child = measure(config=misread)
        setup = run.Setup()
        setup.summary, setup.rounds = summary, 1
        problems = []
        run.check_measure(child, setup, problems)
        self.assertTrue(any("flow counts" in p for p in problems))
        rejected = subprocess.run(
            [run.TOOL, "reference", "--in", PCAP, "--out", "x", "--style",
             "measure", "--algorithm", "multistage", "--entries", "64",
             "--threshold", "2e4", "--interval", "1"], capture_output=True)
        self.assertEqual(rejected.returncode, 2)

    def test_renumbered_rounds_replay_into_the_collector(self):
        once = os.path.join(WORK, "once.bin")
        twice = os.path.join(WORK, "twice.bin")
        summary = reference(once, 3, "collect")
        reference(twice, 3, "collect", rounds=2)
        first, both = split(once), split(twice)
        per_round = len(summary["flows"])
        self.assertEqual(len(both), 2 * len(first))
        for a, b in zip(first, both[len(first):]):
            self.assertEqual(b["interval"], a["interval"] + per_round)
            self.assertEqual(b["flows"], a["flows"])
        self.assertEqual(read(twice)[:os.path.getsize(once)], read(once))

        recorded = []
        for device in range(run.FLEET):
            out = os.path.join(WORK, f"rec{device}.bin")
            child = measure("--fleet-size", str(run.FLEET), "--device-id",
                            str(device), "--metrics=" +
                            os.path.join(WORK, f"rec{device}.jsonl"),
                            "--export", out)
            self.assertEqual(child.status, 0)
            recorded.append(out)
        generator = subprocess.Popen(
            [run.TOOL, "replay", "--reports", ",".join(recorded), "--rounds",
             "2"], cwd=WORK, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        try:
            self.assertTrue(json.loads(generator.stdout.readline())["ready"])
            run.clear_outputs(WORK)
            collector = run.Child(run.collect_args(WORK, run.FLEET), WORK,
                                  "collector")
            run.wait_for_file(os.path.join(WORK, "port"))
            generator.stdin.write(read(os.path.join(WORK, "port")).decode())
            generator.stdin.flush()
            self.assertTrue(json.loads(generator.stdout.readline())["sent"])
            run.reap([collector])
        finally:
            generator.stdin.close()
            generator.wait()
            generator.stdout.close()
        self.assertEqual(collector.status, 0)
        self.assertEqual(read(os.path.join(WORK, "merged.bin")), read(twice))
        setup = run.Setup()
        setup.summary, setup.rounds = summary, 2
        problems = []
        run.check_collector(collector, setup, run.FLEET, run.FLEET, problems)
        self.assertEqual(problems, [])

    def test_counter_readers_and_exact_read_syscalls(self):
        syscr = []
        for _ in range(2):
            child = measure("--export", os.path.join(WORK, "e.bin"))
            self.assertEqual(child.status, 0)
            self.assertGreater(child.rusage.ru_maxrss, 0)
            self.assertGreater(child.io["rchar"], os.path.getsize(PCAP))
            syscr.append(child.io["syscr"])
        self.assertEqual(syscr[0], syscr[1])
        self.assertEqual(run.read_proc_io(os.getpid())["syscr"] > 0, True)

    def test_best_and_scaling_follow_each_metric(self):
        for metric in run.load_benchmark()["end_to_end"]:
            name = metric["name"]
            self.assertEqual(name in run.HIGHER_IS_BETTER,
                             metric["better"] == "higher", name)
            self.assertEqual(name in run.SCALED_TIMES,
                             metric["unit"] == "s" and name != "setup_s",
                             name)
        self.assertEqual(run.best([3.0, 1.0, 2.0], False), 1.0)
        self.assertEqual(run.best([3.0, 1.0, 2.0], True), 3.0)

    def test_clock_probe_times_the_chain(self):
        short = json.loads(tool("clock", "--iterations", "1000"))
        self.assertGreater(short["seconds"], 0)
        self.assertGreater(run.clock_probe(), short["seconds"])

    def test_layer_exact_counts_repeat_across_processes(self):
        results = []
        for attempt in range(2):
            args = ["layers", "--in", PCAP, "--shards", "3", "--shipped",
                    "sharded", "--seconds", "1", "--trace-out",
                    os.path.join(WORK, "trace.json"), "--batch-export",
                    os.path.join(WORK, "batch.bin"), "--merged-export",
                    os.path.join(WORK, f"merged{attempt}.bin")]
            for key, value in SMALL.items():
                args += ["--" + key, value]
            results.append(json.loads(tool(*args)))
        for result in results:
            self.assertTrue(result["consistent"])
            self.assertTrue(result["repeatable"])
            self.assertEqual(result["trace_dropped"], 0)
        for name in EXACT:
            self.assertEqual(results[0]["metrics"][name],
                             results[1]["metrics"][name], name)
        self.assertEqual(read(os.path.join(WORK, "merged0.bin")),
                         read(os.path.join(WORK, "merged1.bin")))
        names = {m["name"] for m in run.load_benchmark()["per_layer"]}
        counters = {"pcap.read_syscalls_per_kpkt",
                    "net.write_syscalls_per_interval",
                    "net.collector_read_syscalls_per_mb"}
        self.assertEqual(set(results[0]["metrics"]), names - counters)


def setUpModule():
    global WORK, PCAP
    run.build()
    WORK = os.path.join(run.REPO, ".bench_build", f"selftest-{os.getpid()}")
    os.makedirs(WORK)
    PCAP = os.path.join(WORK, "small.pcap")
    run.run_checked([run.NDTM, "synthesize", "--preset", "mag", "--scale",
                     "0.02", "--intervals", "1", "--seed", "3", "--out",
                     PCAP], WORK, "ndtm synthesize")


def tearDownModule():
    run.stop_children()
    shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
