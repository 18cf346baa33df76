#!/usr/bin/env python3
"""One-CPU end-to-end benchmark of cid_sweep and cid_serve.

    python3 e2ebench/run.py --workload large-n --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout. The first run configures and builds
the repository's tools from source into .bench_build/e2ebench (see
CMakeLists.txt next to this file); later runs rebuild incrementally. Every
process of a workload runs pinned to one CPU, with --threads 1.

A run first makes a local --threads 1 reference manifest with the same
build, then repeats the workload until --seconds have passed (at least
MIN_REPS times) and compares every repetition's manifest with the reference
byte for byte. --trace 0 reports the end-to-end metrics of the untraced
tools. --trace 1 alternates untraced and traced repetitions, adds one metered
pass, and reports per-layer metrics (layers.py). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. README.md documents the workloads, metrics and layer map.
"""
import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import stats  # noqa: E402

BUILD = ROOT / ".bench_build" / "e2ebench"
CMAKE_DIR = BUILD / "cmake"
TOOLS = {
    "cid_sweep": CMAKE_DIR / "cid" / "cid_sweep",
    "cid_serve": CMAKE_DIR / "cid" / "cid_serve",
    "cid_sweep_traced": CMAKE_DIR / "cid_sweep_traced",
    "cid_serve_traced": CMAKE_DIR / "cid_serve_traced",
}
MIN_REPS = 3
# Every run ends within 180 s once the tools are built.
RUN_TIMEOUT_S = 170
RECORD_BYTES = 45  # one CIDMANI trial record (src/persist/manifest.hpp)

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
PER_LAYER = [
    ("game.build_s", "s", "lower"),
    ("game.build_calls", "count", "lower"),
    ("game.outcome_s", "s", "lower"),
    ("dynamics.ctx_refresh_s", "s", "lower"),
    ("dynamics.row_fill_s", "s", "lower"),
    ("dynamics.draw_s", "s", "lower"),
    ("dynamics.apply_s", "s", "lower"),
    ("dynamics.stop_check_s", "s", "lower"),
    ("dynamics.rounds", "count", "lower"),
    ("dynamics.rows_filled", "count", "lower"),
    ("dynamics.rows_pruned_frac", "ratio", "higher"),
    ("dynamics.latency_evals_per_round", "count", "lower"),
    ("dynamics.trial_frac", "ratio", "higher"),
    ("sweep.stream_derive_s", "s", "lower"),
    ("sweep.trial_s", "s", "lower"),
    ("sweep.trials", "count", "higher"),
    ("sweep.trial_retries", "count", "lower"),
    ("sweep.trial_ms_p50", "ms", "lower"),
    ("sweep.trial_ms_tail", "ms", "lower"),
    ("sweep.trial_tail_pct", "%", "higher"),
    ("sweep.trial_samples", "count", "higher"),
    ("persist.manifest_load_s", "s", "lower"),
    ("persist.manifest_append_s", "s", "lower"),
    ("persist.canonical_write_s", "s", "lower"),
    ("persist.bytes_written", "bytes", "lower"),
    ("persist.fflushes", "count", "lower"),
    ("persist.fsyncs", "count", "lower"),
    ("persist.write_retries", "count", "lower"),
    ("serve.handshake_s", "s", "lower"),
    ("serve.overhead_us_per_trial", "us", "lower"),
    ("serve.grant_wait_s", "s", "lower"),
    ("serve.leases_granted", "count", "lower"),
    ("serve.useful_lease_frac", "ratio", "higher"),
    ("game.wall_frac", "ratio", "lower"),
    ("dynamics.wall_frac", "ratio", "higher"),
    ("sweep.wall_frac", "ratio", "lower"),
    ("persist.wall_frac", "ratio", "lower"),
    ("serve.wall_frac", "ratio", "lower"),
    ("obs.traced_wall_s", "s", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
    ("unattributed_frac", "ratio", "lower"),
]


class Workload:
    """A fixed grid; the seed is the only input that varies between runs.

    `resumed` > 0 makes it a lease workload: cid_serve starts from a
    manifest whose first `resumed` trials are complete and one
    cid_sweep --connect worker leases the rest.
    """

    def __init__(self, grid, trials, resumed=0):
        self.grid = grid
        self.trials = trials
        self.resumed = resumed

    @property
    def ran(self):
        return self.trials - self.resumed


WORKLOADS = {
    # n = 1e6: instance build (beta) and the O(n) potential / social cost.
    "large-n": Workload(
        ["--scenario", "network-routing", "--grid", "1000000",
         "--protocols", "imitation", "--trials", "24"], 24),
    # 64-path game whose trials are almost all engine rounds.
    "engine-bound": Workload(
        ["--scenario", "network-routing", "--param", "width=4",
         "--param", "depth=3", "--grid", "10000",
         "--protocols", "imitation,exploration,combined",
         "--trials", "4", "--rounds", "8000"], 12),
    # Tiny leased trials resumed from a half-complete manifest.
    "lease-resume": Workload(
        ["--scenario", "load-balancing", "--grid", "100:1000:lin:20",
         "--protocols", "imitation", "--trials", "2000"], 40000,
        resumed=20000),
}


class BenchError(Exception):
    pass


# ---- processes --------------------------------------------------------------

LIVE = set()


def spawn(cmd, cpu, log, env=None):
    with open(log, "ab") as out:
        proc = subprocess.Popen(
            [str(c) for c in cmd], stdout=out, stderr=subprocess.STDOUT,
            env=env, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    LIVE.add(proc)
    return proc


class Exit:
    def __init__(self, t_ns, code, cpu_s, rss_mb):
        self.t_ns, self.code, self.cpu_s, self.rss_mb = t_ns, code, cpu_s, rss_mb


def reap(proc):
    _, status, usage = os.wait4(proc.pid, 0)
    t_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    LIVE.discard(proc)
    return Exit(t_ns, proc.returncode, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def stop_all():
    for proc in list(LIVE):
        proc.kill()
    for proc in list(LIVE):
        reap(proc)


def on_alarm(signum, frame):
    raise BenchError(f"run exceeded {RUN_TIMEOUT_S} s")


# ---- build and host ---------------------------------------------------------

def build():
    missing = [p for p in ("CMakeLists.txt", "src", "tools")
               if not (ROOT / p).exists()]
    if missing:
        raise BenchError(f"no cid source tree at {ROOT} "
                         f"(missing {', '.join(missing)})")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.append([cmake, "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCID_BUILD_BENCHES=OFF", "-DCID_BUILD_EXAMPLES=OFF"])
    steps.append([cmake, "--build", CMAKE_DIR, "--target", *TOOLS, "-j", jobs])
    for cmd in steps:
        with open(log, "ab") as out:
            done = subprocess.run([str(c) for c in cmd], stdout=out,
                                  stderr=subprocess.STDOUT)
        if done.returncode != 0:
            raise BenchError(f"build failed; see {log}")


def host_block(cpu, harness_cpu, allowed, parallelism):
    cache = {}
    for line in (CMAKE_DIR / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.startswith(("#", "//")):
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(f for f in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")) if f)
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    return {
        "compiler": version[0] if version else compiler,
        "flags": flags,
        "build_type": build_type,
        "nproc": os.cpu_count(),
        "cpus_allowed": allowed,
        "workload_cpu": cpu,
        "harness_cpu": harness_cpu,
        "effective_parallelism": parallelism,
        "git_sha": sha,
    }


def effective_parallelism(cpus, log):
    """k * (one copy's wall) / (k concurrent copies' wall), k pinned copies
    of a fixed CPU-bound sweep on k distinct CPUs."""
    cmd = [TOOLS["cid_sweep"], "--scenario", "network-routing",
           "--grid", "200000", "--trials", "4", "--threads", "1"]
    k = min(4, len(cpus))
    if k < 2:
        return 1.0
    start = time.monotonic_ns()
    reap(spawn(cmd, cpus[0], log))
    alone = time.monotonic_ns() - start
    start = time.monotonic_ns()
    exits = [reap(p) for p in [spawn(cmd, c, log) for c in cpus[:k]]]
    together = max(e.t_ns for e in exits) - start
    return k * alone / together


# ---- one workload -----------------------------------------------------------

class Sample:
    def __init__(self, t0, exits, manifest):
        self.t0 = t0
        self.t1 = max(e.t_ns for e in exits)
        self.exits = exits
        self.manifest = manifest

    @property
    def wall_s(self):
        return (self.t1 - self.t0) / 1e9

    @property
    def cpu_s(self):
        return sum(e.cpu_s for e in self.exits)

    @property
    def rss_mb(self):
        return max(e.rss_mb for e in self.exits)


class Bench:
    def __init__(self, workload, seed, cpu, work):
        self.w = workload
        self.seed = seed
        self.cpu = cpu
        self.work = work
        self.log = work / "tools.log"
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("CID_BENCH_")}
        self.prepared = None
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def sweep_cmd(self, tool, manifest, *extra):
        return [TOOLS[tool], *self.w.grid, "--seed", str(self.seed),
                "--threads", "1", "--manifest", manifest, *extra]

    def run(self, cmd, env=None):
        t0 = time.monotonic_ns()
        return t0, reap(spawn(cmd, self.cpu, self.log, env or self.env))

    def must(self, cmd, what):
        _, done = self.run(cmd)
        if done.code != 0:
            raise BenchError(f"{what} exited {done.code}; see {self.log}")

    def setup_inputs(self):
        """The prepared half-complete manifest (lease workloads) and the
        local --threads 1 reference manifest."""
        if self.w.resumed:
            self.prepared = self.work / "prepared.man"
            self.must(self.sweep_cmd("cid_sweep", self.prepared,
                                     "--max-new-trials", self.w.resumed),
                      "preparing the resume manifest")
        ref = self.work / "reference.man"
        self.must(self.sweep_cmd("cid_sweep", ref), "the reference run")
        self.reference = ref.read_bytes()

    def start_coordinator(self, rep, manifest, env, traced):
        port_file = rep / "port"
        port_file.unlink(missing_ok=True)
        cmd = [TOOLS["cid_serve_traced" if traced else "cid_serve"],
               *self.w.grid, "--seed", str(self.seed),
               "--manifest", manifest, "--port", "0",
               "--port-file", port_file, "--max-seconds", "120"]
        t0 = time.monotonic_ns()
        proc = spawn(cmd, self.cpu, self.log, env)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if port_file.exists():
                text = port_file.read_text()
                if text.endswith("\n"):
                    return t0, proc, int(text)
            time.sleep(0.0002)
        raise BenchError(f"cid_serve did not listen; see {self.log}")

    def worker_cmd(self, tool, port, *extra):
        return [TOOLS[tool], *self.w.grid, "--seed", str(self.seed),
                "--threads", "1", "--connect", f"127.0.0.1:{port}", *extra]

    def full(self, rep, traced=False):
        env = self.env
        if traced:
            env = dict(self.env, CID_BENCH_SPANS=str(rep / "spans"),
                       CID_BENCH_RUN_ID=rep.name)
        sweep = "cid_sweep_traced" if traced else "cid_sweep"
        manifest = rep / "out.man"
        if not self.w.resumed:
            t0, done = self.run(self.sweep_cmd(sweep, manifest), env)
            return Sample(t0, [done], manifest)
        shutil.copyfile(self.prepared, manifest)
        t0, coordinator, port = self.start_coordinator(rep, manifest, env,
                                                       traced)
        worker = spawn(self.worker_cmd(sweep, port), self.cpu, self.log, env)
        exits = [reap(worker), reap(coordinator)]
        return Sample(t0, exits, manifest)

    def setup_probe(self, rep):
        """Wall time of the workload's set-up alone: the same invocation
        stopped before its first trial (--max-new-trials 0)."""
        if not self.w.resumed:
            t0, done = self.run(self.sweep_cmd(
                "cid_sweep", rep / "probe.man", "--max-new-trials", "0"))
            if done.code != 0:
                raise BenchError(f"set-up probe exited {done.code}")
            return (done.t_ns - t0) / 1e9
        manifest = rep / "probe.man"
        shutil.copyfile(self.prepared, manifest)
        t0, coordinator, port = self.start_coordinator(rep, manifest,
                                                       self.env, False)
        done = reap(spawn(self.worker_cmd("cid_sweep", port,
                                          "--max-new-trials", "0"),
                          self.cpu, self.log, self.env))
        coordinator.terminate()
        reap(coordinator)
        if done.code != 0:
            raise BenchError(f"set-up probe worker exited {done.code}")
        return (done.t_ns - t0) / 1e9

    def metered(self):
        """Counters of one metered local pass over the same trials."""
        manifest = self.work / "metered.man"
        jsonl = self.work / "metered.jsonl"
        if self.w.resumed:
            shutil.copyfile(self.prepared, manifest)
        _, done = self.run(self.sweep_cmd("cid_sweep", manifest,
                                          "--metrics", jsonl))
        self.check([done], manifest)
        counters = {}
        for line in jsonl.read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") == "snapshot":
                counters = record["counters"]
        return counters

    def check(self, exits, manifest):
        """Counts the invocation's trials as attempted, and failed ones
        (non-zero exit: all of them) plus records that differ from the
        reference as failed."""
        attempted = self.w.ran
        bad = attempted
        if all(e.code == 0 for e in exits) and manifest.exists():
            bad = min(attempted, mismatches(self.reference,
                                            manifest.read_bytes(),
                                            self.w.trials))
        self.attempted += attempted
        self.failed += bad


def mismatches(reference, output, records):
    """Trial records of `output` that differ from `reference`."""
    if output == reference:
        return 0
    header = len(reference) - records * RECORD_BYTES
    if (header <= 0 or len(output) != len(reference)
            or output[:header] != reference[:header]):
        return records
    return sum(
        output[at:at + RECORD_BYTES] != reference[at:at + RECORD_BYTES]
        for at in range(header, len(reference), RECORD_BYTES))


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def summarize(values):
    q1, q2, q3 = stats.quartiles(values)
    line = (f"    over repetitions: min {min(values):.6g}  q1 {q1:.6g}"
            f"  median {q2:.6g}  q3 {q3:.6g}"
            f"  spread {stats.spread(values):.2%}  n={len(values)}")
    tail = stats.tail(values)
    if tail:
        line += f"  p{tail[0]:g} {tail[1]:.6g} ({tail[2]} beyond)"
    return line


def run_untraced(bench, seconds):
    setups, reps = [], []
    deadline = time.monotonic() + seconds
    i = 0
    while len(reps) < MIN_REPS or time.monotonic() < deadline:
        rep = fresh_dir(bench.work / f"rep{i}")
        setups.append(bench.setup_probe(rep))
        sample = bench.full(rep)
        bench.check(sample.exits, sample.manifest)
        reps.append(sample)
        shutil.rmtree(rep)
        i += 1
    series = {
        "wall_s": [s.wall_s for s in reps],
        "setup_s": setups,
        "cpu_s": [s.cpu_s for s in reps],
        "peak_rss_mb": [s.rss_mb for s in reps],
    }
    # Neighbour load on a shared host only ever adds time, so the fastest
    # repetition is the least disturbed estimate of each timing.
    best = {name: min(series[name]) for name in ("wall_s", "setup_s", "cpu_s")}
    best["trials_per_s"] = bench.w.ran / (best["wall_s"] - best["setup_s"])
    best["peak_rss_mb"] = stats.median(series["peak_rss_mb"])
    return series, best


def run_traced(bench, seconds, report_dir, workload_name):
    shares_counters = bench.metered()
    shares = layers.phase_shares(shares_counters)
    untraced, traced, trial_ms = [], [], []
    last_procs = None
    deadline = time.monotonic() + seconds
    i = 0
    while len(traced) < MIN_REPS or time.monotonic() < deadline:
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            rep = fresh_dir(bench.work / f"rep{i}-{int(is_traced)}")
            sample = bench.full(rep, traced=is_traced)
            bench.check(sample.exits, sample.manifest)
            if is_traced:
                procs = [layers.read_span_file(p)
                         for p in sorted(rep.glob("spans.*.bin"))]
                if not procs:
                    raise BenchError("traced run wrote no spans")
                metrics, ms = layers.attribute(procs, sample.t0, sample.t1,
                                               shares)
                traced.append(metrics)
                trial_ms.extend(ms)
                last_procs = procs
            else:
                untraced.append(sample.wall_s)
            shutil.rmtree(rep)
        i += 1
    series = {name: [m[name] for m in traced] for name in traced[0]}
    for name, value in layers.engine_counts(shares_counters).items():
        series[name] = [value]
    series["obs.trace_overhead_frac"] = [
        min(series["obs.traced_wall_s"]) / min(untraced) - 1.0]
    tail = stats.tail(trial_ms) or (50.0, stats.median(trial_ms), 0,
                                    len(trial_ms))
    series["sweep.trial_ms_p50"] = [stats.median(trial_ms)]
    series["sweep.trial_ms_tail"] = [tail[1]]
    series["sweep.trial_tail_pct"] = [tail[0]]
    series["sweep.trial_samples"] = [len(trial_ms)]
    (report_dir / f"{workload_name}.trace.json").write_text(
        json.dumps(layers.chrome_trace(last_procs)))
    return series


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        build()
    except BenchError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_TIMEOUT_S)
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    harness_cpu = allowed[0] if len(allowed) > 1 else None
    work = fresh_dir(BUILD / "work" / f"{args.workload}-{os.getpid()}")
    report_dir = BUILD / "reports"
    report_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, cpu, work)
    try:
        parallelism = effective_parallelism(allowed, bench.log)
        if harness_cpu is not None:
            os.sched_setaffinity(0, {harness_cpu})
        host = host_block(cpu, harness_cpu, allowed, parallelism)
        bench.setup_inputs()
        if args.trace:
            series = run_traced(bench, args.seconds, report_dir,
                                args.workload)
            values = {name: stats.median(series[name])
                      for name, _, _ in PER_LAYER}
            table = PER_LAYER
        else:
            series, values = run_untraced(bench, args.seconds)
            table = END_TO_END
    except (BenchError, OSError, ValueError) as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        stop_all()
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in table}
    stats.check_metric_names(metrics)
    print(json.dumps({"host": host}))
    print(f"e2ebench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{bench.attempted} trials checked, {bench.failed} failed")
    for name, unit, _ in table:
        print(f"  {name:32s} {values[name]:.6g} {unit}")
        if len(series.get(name, ())) > 1:
            print(summarize(series[name]))
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host, "series": series,
              "attempted": bench.attempted, "failed": bench.failed}
    (report_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
