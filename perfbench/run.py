#!/usr/bin/env python3
"""End-to-end pcap -> collector benchmark for ndtm.

Run from the repository root:

    python3 perfbench/run.py --workload mag_measure --seed 1 --seconds 10 --trace 0

--trace 0 times the shipped `ndtm` binary as child processes and prints
the end-to-end metrics; --trace 1 runs the traced in-process layer
run (perfbench_tool layers) and prints the per-layer metrics. Either
way every output is checked against a reference computed at set-up by
the library's own batch path, and the last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Metric names and
units come from BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import filecmp
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
NDTM = os.path.join(BUILD, "repo", "tools", "ndtm")
TOOL = os.path.join(BUILD, "perfbench_tool")
SETUP_REPEATS = 3
WATCHDOG_S = 170

# Every flag value is a plain decimal or a name: ndtm parses numbers
# with strtoull/atof and would silently misread anything else.
MAG_MEASURE = {"algorithm": "multistage", "entries": "4096",
               "threshold": "100000", "interval": "5", "shards": "1"}
MAG_PIPELINE = {"algorithm": "sample-and-hold", "entries": "196608",
                "threshold": "1000", "interval": "1", "shards": "3"}
WORKLOADS = {
    "mag_measure": {"intervals": "8", "config": MAG_MEASURE, "rounds": 1,
                    "style": "measure", "shipped": "plain"},
    "mag_pipeline": {"intervals": "4", "config": MAG_PIPELINE, "rounds": 1,
                     "style": "collect", "shipped": "sharded"},
    "collector_replay": {"intervals": "4", "config": MAG_PIPELINE,
                         "rounds": 5, "style": "collect",
                         "shipped": "sharded"},
}
FLEET = 3
HIGHER_IS_BETTER = {"pkts_per_s", "records_per_s"}
SCALED_TIMES = {"wall_s", "merge_tail_s", "cpu_s"}
# The clock probe takes about CLOCK_REFERENCE_S on the development host;
# timings are rescaled to that host speed.
CLOCK_ITERATIONS = 20000000
CLOCK_REFERENCE_S = 0.05

_children = []
_generators = []


class BenchError(Exception):
    """The benchmark itself could not run (build, set-up, bad input)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(args, cwd, what):
    result = subprocess.run(args, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        raise BenchError(f"{what} failed ({result.returncode}):\n"
                         f"{result.stderr[-2000:]}")
    return result.stdout


# ---------------------------------------------------------------- build


def build():
    if not os.path.exists(os.path.join(REPO, "CMakeLists.txt")):
        raise BenchError("no repository sources next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD], REPO,
                    "cmake configure")
    run_checked(["cmake", "--build", BUILD, "--target", "ndtm",
                 "perfbench_tool", "-j", str(os.cpu_count() or 1)],
                REPO, "build")


def fingerprint():
    info = json.loads(run_checked([TOOL, "info"], REPO, "perfbench_tool info"))
    model = "unknown"
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "build_type": info["build_type"] or "(none)",
            "simd": info["simd"], "crc": info["crc"], "network": "loopback"}


# ------------------------------------------------------------ children


class Child:
    """A child process whose exit is observed with waitid(WNOWAIT), so
    /proc/<pid>/io can be read before it is reaped with wait4."""

    def __init__(self, args, workdir, name):
        self.name = name
        self.out_path = os.path.join(workdir, name + ".out")
        with open(self.out_path, "wb") as out, \
                open(os.path.join(workdir, name + ".err"), "wb") as err:
            self.proc = subprocess.Popen(args, cwd=workdir, stdout=out,
                                         stderr=err)
        self.pid = self.proc.pid
        self.exit_time = None
        self.io = {}
        self.rusage = None
        self.status = None
        _children.append(self)

    def output(self):
        with open(self.out_path, errors="replace") as out:
            return out.read()


def read_proc_io(pid):
    counters = {}
    with open(f"/proc/{pid}/io") as io:
        for line in io:
            key, value = line.split(":")
            counters[key.strip()] = int(value)
    return counters


def reap(children):
    """Wait for one of `children` to exit; returns it with exit time,
    /proc io counters, exit status and rusage filled in."""
    by_pid = {child.pid: child for child in children}
    while True:
        if len(by_pid) == 1:
            info = os.waitid(os.P_PID, next(iter(by_pid)),
                             os.WEXITED | os.WNOWAIT)
        else:
            info = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
        exit_time = time.monotonic()
        child = by_pid.get(info.si_pid)
        if child is None:
            raise BenchError(f"unexpected child {info.si_pid} exited")
        child.exit_time = exit_time
        child.io = read_proc_io(child.pid)
        _, status, rusage = os.wait4(child.pid, 0)
        child.status = os.waitstatus_to_exitcode(status)
        child.proc.returncode = child.status
        child.rusage = rusage
        _children.remove(child)
        return child


def stop_children():
    for proc in [child.proc for child in _children] + _generators:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    _children.clear()
    _generators.clear()


def wait_for_file(path, deadline_s=30.0):
    start = time.monotonic()
    while not os.path.exists(path):
        if time.monotonic() - start > deadline_s:
            raise BenchError(f"{path} never appeared")
        time.sleep(0.0002)


def measure_args(config, pcap):
    return [NDTM, "measure", "--in", pcap, "--flow-def", "5tuple",
            "--algorithm", config["algorithm"], "--entries",
            config["entries"], "--threshold", config["threshold"],
            "--interval", config["interval"]]


def collect_args(workdir, devices):
    return [NDTM, "collect", "--listen", "0", "--devices", str(devices),
            "--timeout-ms", "60000", "--port-file",
            os.path.join(workdir, "port"), "--journal",
            os.path.join(workdir, "collector.wal"), "--journal-fsync-batch",
            "16", "--metrics=" + os.path.join(workdir, "collector.jsonl"),
            "--export", os.path.join(workdir, "merged.bin")]


# ---------------------------------------------------------------- setup


class Setup:
    pass


def reference_args(workload, pcap, out, rounds):
    args = [TOOL, "reference", "--in", pcap, "--style", workload["style"],
            "--rounds", str(rounds), "--out", out]
    for key, value in workload["config"].items():
        args += ["--" + key, value]
    return args


def set_up(name, seed, workdir):
    """Synthesize the trace, warm the page cache, compute the reference
    and (collector_replay) record the fleet's reports and start the
    generator. Returns a Setup."""
    workload = WORKLOADS[name]
    setup = Setup()
    setup.pcap = os.path.join(workdir, "trace.pcap")
    setup.reference = os.path.join(workdir, "reference.bin")
    setup.rounds = workload["rounds"]
    run_checked([NDTM, "synthesize", "--preset", "mag", "--scale", "1",
                 "--intervals", workload["intervals"], "--seed", str(seed),
                 "--out", setup.pcap], workdir, "ndtm synthesize")
    with open(setup.pcap, "rb") as pcap:
        while pcap.read(1 << 23):
            pass
    setup.summary = json.loads(run_checked(
        reference_args(workload, setup.pcap, setup.reference, setup.rounds),
        workdir, "perfbench_tool reference"))
    setup.generator = None
    setup.recorders = []
    if name == "collector_replay":
        recorded = []
        for device in range(FLEET):
            out = os.path.join(workdir, f"fleet{device}.bin")
            args = measure_args(workload["config"], setup.pcap) + [
                "--fleet-size", str(FLEET), "--device-id", str(device),
                "--metrics=" + os.path.join(workdir, f"fleet{device}.jsonl"),
                "--export", out]
            recorded.append(out)
            setup.recorders.append(Child(args, workdir, f"fleet{device}"))
        pending = list(setup.recorders)
        while pending:
            child = reap(pending)
            pending.remove(child)
            if child.status != 0:
                raise BenchError(f"recording {child.name} exited "
                                 f"{child.status}")
        setup.generator = subprocess.Popen(
            [TOOL, "replay", "--reports", ",".join(recorded), "--rounds",
             str(setup.rounds)], cwd=workdir, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        _generators.append(setup.generator)
        if not json.loads(setup.generator.stdout.readline() or "{}").get(
                "ready"):
            raise BenchError("replay generator did not start")
    return setup


def close_generator(setup):
    if setup.generator is not None:
        setup.generator.stdin.close()
        setup.generator.wait()
        setup.generator.stdout.close()
        _generators.remove(setup.generator)
        setup.generator = None


# ------------------------------------------------------------ e2e reps


INTERVAL_MEASURE = re.compile(r"^interval (\d+): (\d+) flows tracked$", re.M)
INTERVAL_COLLECT = re.compile(
    r"^interval (\d+): (\d+) members, (\d+) flows, \d+ entries$", re.M)
DONE = re.compile(r"^done: (\d+) packets", re.M)
TRANSPORT = re.compile(r"^transport: .* (\d+) reports abandoned$", re.M)
COLLECT = re.compile(
    r"^collect: \d+ connections, \d+ frames \((\d+) resyncs, (\d+) decode "
    r"errors\), (\d+) reports \((\d+) duplicates\), \d+ reconnects, "
    r"(\d+)/(\d+) devices done$", re.M)


def expected_flows(setup):
    flows = setup.summary["flows"]
    return [(interval + round_ * len(flows), count)
            for round_ in range(setup.rounds)
            for interval, count in enumerate(flows)]


def check_measure(child, setup, problems):
    text = child.output()
    done = DONE.search(text)
    if not done or int(done.group(1)) != setup.summary["pcap_records"]:
        problems.append(f"{child.name}: done line disagrees with the "
                        f"pcap's {setup.summary['pcap_records']} records")
    printed = [(int(i), int(n)) for i, n in INTERVAL_MEASURE.findall(text)]
    if printed != expected_flows(setup):
        problems.append(f"{child.name}: per-interval flow counts differ "
                        "from the reference")
    abandoned = TRANSPORT.search(text)
    if abandoned and int(abandoned.group(1)) != 0:
        problems.append(f"{child.name}: reports abandoned")


def check_collector(child, setup, members, devices, problems):
    text = child.output()
    printed = [(int(i), int(n)) for i, m, n in INTERVAL_COLLECT.findall(text)
               if int(m) == members]
    if printed != expected_flows(setup):
        problems.append("collector: merged per-interval flow counts "
                        "differ from the reference")
    summary = COLLECT.search(text)
    if not summary:
        problems.append("collector: no summary line")
        return
    resyncs, errors, reports, duplicates, done, expected = map(
        int, summary.groups())
    if resyncs or errors or duplicates or done != expected or \
            expected != devices or \
            reports != devices * len(expected_flows(setup)):
        problems.append(f"collector: unclean summary: {summary.group(0)}")


def check_export(path, setup, problems, prefix=False):
    if not os.path.exists(path):
        problems.append(f"{os.path.basename(path)} missing")
        return
    if prefix:
        with open(path, "rb") as got, open(setup.reference, "rb") as want:
            data = got.read()
            same = len(data) > 0 and want.read(len(data)) == data
    else:
        same = filecmp.cmp(path, setup.reference, shallow=False)
    if not same:
        problems.append(f"{os.path.basename(path)} is not byte-identical "
                        "to the reference")


def clear_outputs(workdir):
    for entry in os.listdir(workdir):
        if entry.startswith(("measure", "collector", "merged", "export",
                             "port")):
            os.remove(os.path.join(workdir, entry))


def cpu_of(children):
    return sum(c.rusage.ru_utime + c.rusage.ru_stime for c in children)


def rss_of(children):
    return max(c.rusage.ru_maxrss for c in children) / 1024.0


def rep_mag_measure(setup, workdir):
    config = WORKLOADS["mag_measure"]["config"]
    export = os.path.join(workdir, "export.bin")
    start = time.monotonic()
    measure = Child(measure_args(config, setup.pcap) + ["--export", export],
                    workdir, "measure")
    reap([measure])
    problems = []
    if measure.status != 0:
        problems.append(f"measure exited {measure.status}")
    check_measure(measure, setup, problems)
    check_export(export, setup, problems)
    wall = measure.exit_time - start
    return {
        "wall_s": wall,
        # No upstream process precedes the exporter, so the operator's
        # wait for the final report starts at launch.
        "merge_tail_s": wall,
        "cpu_s": cpu_of([measure]),
        "peak_rss_mb": rss_of([measure]),
        "io": {"measure": measure.io},
    }, problems


def rep_mag_pipeline(setup, workdir):
    config = WORKLOADS["mag_pipeline"]["config"]
    port_file = os.path.join(workdir, "port")
    start = time.monotonic()
    collector = Child(collect_args(workdir, 1), workdir, "collector")
    wait_for_file(port_file)
    with open(port_file) as handle:
        port = handle.read().strip()
    measure = Child(measure_args(config, setup.pcap) + [
        "--shards", config["shards"], "--metrics=" +
        os.path.join(workdir, "measure.jsonl"), "--connect",
        "127.0.0.1:" + port], workdir, "measure")
    first = reap([collector, measure])
    second = reap([collector if first is measure else measure])
    problems = []
    for child in (measure, collector):
        if child.status != 0:
            problems.append(f"{child.name} exited {child.status}")
    if first is not measure:
        problems.append("collector exited before the device")
    check_measure(measure, setup, problems)
    check_collector(collector, setup, FLEET, 1, problems)
    check_export(os.path.join(workdir, "merged.bin"), setup, problems)
    return {
        "wall_s": second.exit_time - start,
        "merge_tail_s": collector.exit_time - measure.exit_time,
        "cpu_s": cpu_of([measure, collector]),
        "peak_rss_mb": rss_of([measure, collector]),
        "io": {"measure": measure.io, "collector": collector.io},
        "journal_bytes": os.path.getsize(
            os.path.join(workdir, "collector.wal")),
    }, problems


def rep_collector_replay(setup, workdir):
    port_file = os.path.join(workdir, "port")
    generator_io_before = read_proc_io(setup.generator.pid)
    start = time.monotonic()
    collector = Child(collect_args(workdir, FLEET), workdir, "collector")
    wait_for_file(port_file)
    with open(port_file) as handle:
        setup.generator.stdin.write(handle.read().strip() + "\n")
    setup.generator.stdin.flush()
    sent = json.loads(setup.generator.stdout.readline() or "{}")
    reap([collector])
    problems = []
    if collector.status != 0:
        problems.append(f"collector exited {collector.status}")
    if not sent.get("sent"):
        problems.append("replay generator failed to send")
    check_collector(collector, setup, FLEET, FLEET, problems)
    check_export(os.path.join(workdir, "merged.bin"), setup, problems)
    generator_io = read_proc_io(setup.generator.pid)
    last_bye = sent.get("last_bye_ns", 0) / 1e9
    return {
        "wall_s": collector.exit_time - start,
        "merge_tail_s": collector.exit_time - last_bye,
        "cpu_s": cpu_of([collector]),
        "peak_rss_mb": rss_of([collector]),
        "io": {"collector": collector.io,
               "generator": {k: generator_io[k] - generator_io_before[k]
                             for k in generator_io}},
        "journal_bytes": os.path.getsize(
            os.path.join(workdir, "collector.wal")),
    }, problems


REPS = {"mag_measure": rep_mag_measure, "mag_pipeline": rep_mag_pipeline,
        "collector_replay": rep_collector_replay}


def packets_accounted(setup):
    return setup.summary["packets"] * setup.rounds


def records_exported(setup):
    return setup.summary["records_per_round"] * setup.rounds


# --------------------------------------------------------------- modes


def best(values, higher_is_better):
    """The best repetition's value. On a shared host, other tenants'
    load only ever slows a repetition down, in bursts of seconds; the
    best repetition tracks the program's own cost most closely."""
    return max(values) if higher_is_better else min(values)


def clock_probe():
    """Seconds the host takes now for a fixed chain of ALU steps."""
    out = run_checked([TOOL, "clock", "--iterations", str(CLOCK_ITERATIONS)],
                      REPO, "perfbench_tool clock")
    return json.loads(out)["seconds"]


def run_e2e(name, seed, seconds, workdir):
    setup_times = []
    digests = set()
    setup = None
    clock = []
    for _ in range(SETUP_REPEATS):
        if setup is not None:
            close_generator(setup)
        clock.append(clock_probe())
        begin = time.monotonic()
        setup = set_up(name, seed, workdir)
        setup_times.append(time.monotonic() - begin)
        digests.add(json.dumps(setup.summary, sort_keys=True))
    problems = []
    if len(digests) != 1:
        problems.append("set-up is not deterministic: references differ")

    samples = {}
    attempted = failed = 0
    start = time.monotonic()
    while attempted < 3 or time.monotonic() - start < seconds:
        clock.append(clock_probe())
        clear_outputs(workdir)
        values, rep_problems = REPS[name](setup, workdir)
        attempted += 1
        if rep_problems:
            failed += 1
            problems += rep_problems
        values["pkts_per_s"] = packets_accounted(setup) / values["wall_s"]
        values["records_per_s"] = records_exported(setup) / values["wall_s"]
        for key, value in values.items():
            if isinstance(value, float):
                samples.setdefault(key, []).append(value)
    close_generator(setup)
    # The host's CPU speed also drifts over minutes. The probe, run
    # before each set-up and repetition, tracks that drift; every timing
    # is rescaled to the reference speed.
    speed = CLOCK_REFERENCE_S / statistics.median(clock)
    metrics = {}
    for key, values in samples.items():
        metrics[key] = best(values, key in HIGHER_IS_BETTER)
        if key in SCALED_TIMES:
            metrics[key] *= speed
        elif key in HIGHER_IS_BETTER:
            metrics[key] /= speed
    metrics["setup_s"] = statistics.median(setup_times) * speed
    metrics["fail_ratio"] = failed / attempted
    samples["clock_s"] = clock
    return metrics, samples, attempted, failed, problems


def run_traced(name, seed, seconds, workdir):
    workload = WORKLOADS[name]
    setup = set_up(name, seed, workdir)
    problems = []
    clear_outputs(workdir)
    values, rep_problems = REPS[name](setup, workdir)
    close_generator(setup)
    problems += rep_problems
    io = values["io"]
    intervals = len(setup.summary["flows"]) * setup.rounds
    if name == "collector_replay":
        # The recording children are this workload's pcap readers.
        reader_io = setup.recorders[0].io
        device_io = io["generator"]
    else:
        reader_io = device_io = io["measure"]
    counters = {
        "pcap.read_syscalls_per_kpkt":
            reader_io["syscr"] / (setup.summary["packets"] / 1000.0),
        "net.write_syscalls_per_interval": device_io["syscw"] / intervals,
        # mag_measure has no collector process.
        "net.collector_read_syscalls_per_mb":
            io["collector"]["syscr"] / (values["journal_bytes"] / 1e6)
            if "collector" in io else 0.0,
    }

    batch_export = os.path.join(workdir, "layers_batch.bin")
    merged_export = os.path.join(workdir, "layers_merged.bin")
    # The chrome-trace of the last traced pass outlives the work dir.
    trace_dir = os.path.join(REPO, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    args = [TOOL, "layers", "--in", setup.pcap, "--shipped",
            workload["shipped"], "--seconds", str(seconds), "--trace-out",
            os.path.join(trace_dir, f"{name}-{seed}.json"), "--batch-export",
            batch_export, "--merged-export", merged_export]
    for key, value in workload["config"].items():
        args += ["--" + key, FLEET if key == "shards" else value]
    layers = json.loads(run_checked([str(a) for a in args], workdir,
                                    "perfbench_tool layers"))
    if not layers["consistent"]:
        problems.append("layers: session path and batch path disagree")
    if not layers["repeatable"]:
        problems.append("layers: exact counts changed between passes")
    if layers["trace_dropped"]:
        problems.append("layers: trace recorder dropped spans")
    if name == "mag_measure":
        check_export(batch_export, setup, problems)
    else:
        check_export(merged_export, setup, problems,
                     prefix=setup.rounds > 1)
    metrics = dict(layers["metrics"])
    metrics.update(counters)
    failed = 1 if problems else 0
    return metrics, {}, 2, failed, problems


# ---------------------------------------------------------------- main


def load_benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    def on_watchdog(signum, frame):
        raise BenchError(f"run exceeded {WATCHDOG_S} s")
    signal.signal(signal.SIGALRM, on_watchdog)

    benchmark = load_benchmark()
    build()
    signal.alarm(WATCHDOG_S)
    host = fingerprint()
    workdir = os.path.join(REPO, ".bench_build",
                           f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        mode = run_traced if args.trace else run_e2e
        metrics, samples, attempted, failed, problems = mode(
            args.workload, args.seed, args.seconds, workdir)
    finally:
        signal.alarm(0)
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    print("host: " + json.dumps(host))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} attempted, {failed} failed")
    if "clock_s" in samples:
        clock = statistics.median(samples["clock_s"])
        print(f"clock probe: median {clock:.6g} s of "
              f"{len(samples['clock_s'])}; timings scaled by "
              f"{CLOCK_REFERENCE_S / clock:.6g}, raw figures in brackets")
    for metric in declared:
        name = metric["name"]
        spread = ""
        if name in samples:
            values = samples[name]
            spread = (f"  (best of {len(values)}; median "
                      f"{statistics.median(values):.6g}, min "
                      f"{min(values):.6g}, max {max(values):.6g})")
        print(f"  {name:40s} {metrics[name]:14.6g} {metric['unit']}{spread}")
    if not args.trace:
        print(f"  {'fail_ratio':40s} {metrics['fail_ratio']:14.6g} ratio")
    for problem in problems:
        print("FAIL: " + problem)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as error:
        stop_children()
        log(f"perfbench: {error}")
        sys.exit(1)
