"""Per-layer attribution of a traced workload's wall time.

The traced binaries (trace_shim.cpp) write one span file per process: a
JSON header line (run id, pid, role, span names, counters), then fixed-size
little-endian records (start_ns, end_ns, parent, arg, name, thread). This
module reads them and splits the workload's wall time -- from run.py's
spawn of its first process to the exit of its last -- into layers named
after the repository's modules:

  game      sweep::make_scenario, instance destruction, and the part of
            run_trial outside the engine (start state, potential, social cost)
  dynamics  the five engine phases inside run_trial
  sweep     derive_trial_rng, plus run_sweep's own time around its calls
  persist   manifest load/open/append/close and the canonical rewrite
  serve     serve_grid / run_worker time spent in none of the calls above

Every instant goes to at most one layer. Work spans (game.*, sweep.trial,
sweep.stream_derive, persist.*) come first; they never overlap, because the
workload runs on one CPU and the lease protocol is strict request/response.
A container span (serve.*, sweep.run) owns only the time no work span
covers, its self time. Time no span covers is unattributed: process start-up
and exit. bench.* spans are the benchmark's own epilogue (replayed stream
derivations, the span dump) and are cut out of the wall time.

run_trial is one call, so its split into engine phases and outcome
evaluation takes the phase shares of a separate metered pass (cid_sweep
--metrics, i.e. DynamicsConfig::collect_metrics) and applies them to the
unmetered trial time.
"""
import json
import struct

RECORD = struct.Struct("<qqqqii")
PHASES = ("ctx_refresh", "row_fill", "draw", "apply", "stop_check")
LAYERS = ("game", "dynamics", "sweep", "persist", "serve")
WORK_SPANS = {
    "game.build": "game",
    "game.free": "game",
    "sweep.trial": "trial",
    "sweep.stream_derive": "sweep",
}


def read_span_file(path):
    data = path.read_bytes()
    newline = data.index(b"\n")
    header = json.loads(data[:newline])
    body = data[newline + 1:]
    if len(body) % RECORD.size:
        raise ValueError(f"{path}: truncated span records")
    names = header["names"]
    spans = [(names[name], start, end, parent, thread, arg)
             for start, end, parent, arg, name, thread
             in RECORD.iter_unpack(body)]
    return {"header": header, "spans": spans}


def union(intervals):
    """Sorted, disjoint [start, end] lists covering the same instants."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def measure(intervals):
    return sum(end - start for start, end in intervals)


def subtract(a, b):
    """The instants of a not in b; both as union() returns them."""
    out = []
    j = 0
    for start, end in a:
        while j < len(b) and b[j][1] <= start:
            j += 1
        cursor = start
        k = j
        while k < len(b) and b[k][0] < end:
            if b[k][0] > cursor:
                out.append([cursor, b[k][0]])
            cursor = max(cursor, b[k][1])
            k += 1
        if cursor < end:
            out.append([cursor, end])
    return out


def work_layer(name):
    if name.startswith("persist."):
        return "persist"
    return WORK_SPANS.get(name)


def container_layer(name):
    if name.startswith("serve."):
        return "serve"
    if name == "sweep.run":
        return "sweep"
    return None


def phase_shares(metered):
    """Engine phase time as a share of run_trial time, from the counters of
    a metered pass (engine.*_ns over sweep.trial_run_ns)."""
    trial_ns = metered.get("sweep.trial_run_ns", 0)
    if trial_ns <= 0:
        return {phase: 0.0 for phase in PHASES}
    return {phase: metered.get(f"engine.{phase}_ns", 0) / trial_ns
            for phase in PHASES}


def engine_counts(metered):
    filled = metered.get("engine.rows_filled", 0)
    pruned = metered.get("engine.rows_pruned", 0)
    rounds = metered.get("sweep.ran_rounds", 0)
    return {
        "dynamics.rounds": metered.get("engine.rounds", 0),
        "dynamics.rows_filled": filled,
        "dynamics.rows_pruned_frac":
            pruned / (filled + pruned) if filled + pruned else 0.0,
        "dynamics.latency_evals_per_round":
            metered.get("sweep.latency_evals", 0) / rounds if rounds else 0.0,
    }


def attribute(procs, t0, t1, shares):
    """Per-layer metrics of one traced invocation.

    procs: read_span_file() results of its processes; [t0, t1]: run.py's
    spawn-to-last-exit window in CLOCK_MONOTONIC ns; shares: phase_shares()
    of the metered pass. Returns (metrics, trial durations in ms).
    """
    bench, work, containers = [], {}, {}
    seconds = {}
    for proc in procs:
        for name, start, end, *_ in proc["spans"]:
            start, end = max(start, t0), min(end, t1)
            if end <= start:
                continue
            if name.startswith("bench."):
                bench.append((start, end))
                if name == "bench.replay.stream_derive":
                    seconds.setdefault("replay_derive", []).append(
                        (end - start) / 1e9)
                continue
            seconds.setdefault(name, []).append((end - start) / 1e9)
            if layer := work_layer(name):
                work.setdefault(layer, []).append((start, end))
            elif layer := container_layer(name):
                containers.setdefault(layer, []).append((start, end))

    work_u = union([iv for ivs in work.values() for iv in ivs])
    covered = union([iv for ivs in (*work.values(), *containers.values())
                     for iv in ivs])
    wall = (t1 - t0) - measure(subtract(union(bench), covered))
    ns = {layer: sum(end - start for start, end in ivs)
          for layer, ivs in work.items()}
    serve_u = subtract(union(containers.get("serve", [])), work_u)
    sweep_u = subtract(subtract(union(containers.get("sweep", [])), work_u),
                       serve_u)
    trial_ns = ns.pop("trial", 0)
    engine_share = sum(shares.values())
    layer_ns = {
        "game": ns.get("game", 0) + trial_ns * (1.0 - engine_share),
        "dynamics": trial_ns * engine_share,
        "sweep": ns.get("sweep", 0) + measure(sweep_u),
        "persist": ns.get("persist", 0),
        "serve": measure(serve_u),
    }

    def total(name):
        return sum(seconds.get(name, []))

    counters = {}
    for proc in procs:
        for name, value in proc["header"]["counters"].items():
            counters[name] = counters.get(name, 0) + value

    handshake = 0.0
    for proc in procs:
        spans = proc["spans"]
        worker = [s for s in spans if s[0] == "serve.worker"]
        hello = [s for s in spans if s[0] == "serve.rpc.hello"]
        if worker and hello:
            handshake = (hello[0][2] - worker[0][1]) / 1e9
    leased = counters.get("serve.worker_trials_completed", 0)
    granted = counters.get("serve.leases_granted", 0)
    useful = (counters.get("serve.trials_completed", 0) -
              counters.get("serve.trials_resumed", 0))

    metrics = {
        "game.build_s": total("game.build"),
        "game.build_calls": len(seconds.get("game.build", [])),
        "game.outcome_s": trial_ns * (1.0 - engine_share) / 1e9,
        **{f"dynamics.{phase}_s": trial_ns * share / 1e9
           for phase, share in shares.items()},
        "dynamics.trial_frac": engine_share,
        "sweep.stream_derive_s":
            total("sweep.stream_derive") + total("replay_derive"),
        "sweep.trial_s": trial_ns / 1e9,
        "sweep.trials": len(seconds.get("sweep.trial", [])),
        "sweep.trial_retries": counters.get("sweep.trial_retries", 0),
        "persist.manifest_load_s":
            total("persist.manifest_load") + total("persist.manifest_open"),
        "persist.manifest_append_s": total("persist.manifest_append"),
        "persist.canonical_write_s": total("persist.canonical_write"),
        "persist.bytes_written": counters.get("persist.bytes_written", 0),
        "persist.fflushes": counters.get("persist.fflushes", 0),
        "persist.fsyncs": counters.get("persist.fsyncs", 0),
        "persist.write_retries": counters.get("persist.write_retries", 0),
        "serve.handshake_s": handshake,
        "serve.overhead_us_per_trial":
            layer_ns["serve"] / 1e3 / leased if leased else 0.0,
        "serve.grant_wait_s": total("serve.rpc.lease"),
        "serve.leases_granted": granted,
        "serve.useful_lease_frac": useful / granted if granted else 0.0,
        **{f"{layer}.wall_frac": layer_ns[layer] / wall for layer in LAYERS},
        "unattributed_frac": (wall - measure(covered)) / wall,
        "obs.traced_wall_s": wall / 1e9,
    }
    trial_ms = [s * 1e3 for s in seconds.get("sweep.trial", [])]
    return metrics, trial_ms


def chrome_trace(procs):
    """Chrome trace-event JSON (chrome://tracing, Perfetto) of the spans."""
    events = []
    for proc in procs:
        header = proc["header"]
        for name, start, end, parent, thread, arg in proc["spans"]:
            if end < start:
                continue
            events.append({
                "name": name, "ph": "X", "ts": start / 1e3,
                "dur": (end - start) / 1e3, "pid": header["pid"],
                "tid": thread,
                "args": {"parent": parent, "arg": arg,
                         "run_id": header["run_id"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
