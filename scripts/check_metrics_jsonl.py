#!/usr/bin/env python3
"""Validate a metrics JSONL file emitted by cid_sim/cid_sweep --metrics.

Usage: check_metrics_jsonl.py FILE... [--require-kind KIND ...]
       check_metrics_jsonl.py --prom FILE... [--require-metric NAME ...]

Schema (src/obs/sink.hpp): every line is a standalone JSON object whose
first keys are {"metrics_version":1,"kind":"<kind>"}. Known kinds:

  snapshot  counter-registry dump: "seq" (monotonic per file),
            "counters" object (name -> number, names sorted), and
            "histograms" array of {name, bounds, buckets, count, sum}
            where len(buckets) == len(bounds) + 1 (last bucket is
            overflow) and count == sum(buckets).
  trial     one sweep trial row: cell/protocol/n/trial identity plus the
            outcome and deterministic work counters.

Unknown kinds fail: a writer adding a record shape must bump this
checker (and kMetricsVersion if the change is incompatible) in the same
PR. --require-kind KIND (repeatable) additionally fails when the file
contains no record of that kind — CI uses it to prove the smoke run
actually exercised both writers.

--prom switches to Prometheus 0.0.4 text exposition (what the cid_serve
fleet /metrics endpoint and --metrics-prom emit): every sample must
carry the cid_ prefix and a preceding # TYPE declaration, counters must
be non-negative, and histogram series must have non-decreasing
cumulative _bucket values ending in an le="+Inf" bucket that equals
_count. --require-metric NAME (repeatable) fails unless a sample of
that metric is present — CI uses it to prove the fleet endpoint really
aggregated coordinator and worker counters.
"""
import json
import re
import sys

METRICS_VERSION = 1

TRIAL_NUMERIC_FIELDS = [
    "cell", "n", "trial", "rounds", "converged", "movers", "potential",
    "social_cost", "latency_evals", "ran_rounds", "engine_rows_filled",
    "engine_rows_pruned", "engine_rows_replayed",
]


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_snapshot(record, where, errors, state):
    seq = record.get("seq")
    if not isinstance(seq, int):
        errors.append(f"{where}: snapshot missing integer 'seq'")
    else:
        last = state.get("last_seq")
        if last is not None and seq <= last:
            errors.append(f"{where}: snapshot seq {seq} not monotonic "
                          f"(previous {last})")
        state["last_seq"] = seq
    counters = record.get("counters")
    if not isinstance(counters, dict):
        errors.append(f"{where}: snapshot missing 'counters' object")
    else:
        for name, value in counters.items():
            if not name or not is_number(value):
                errors.append(f"{where}: bad counter entry "
                              f"{name!r}: {value!r}")
        names = list(counters)
        if names != sorted(names):
            errors.append(f"{where}: counter names not sorted")
    histograms = record.get("histograms")
    if not isinstance(histograms, list):
        errors.append(f"{where}: snapshot missing 'histograms' array")
        return
    for hist in histograms:
        name = hist.get("name") if isinstance(hist, dict) else None
        label = f"{where} histogram {name!r}"
        if not isinstance(hist, dict) or not name:
            errors.append(f"{label}: not an object with a name")
            continue
        bounds = hist.get("bounds")
        buckets = hist.get("buckets")
        if (not isinstance(bounds, list) or not isinstance(buckets, list)
                or len(buckets) != len(bounds) + 1):
            errors.append(f"{label}: need len(buckets) == len(bounds)+1")
            continue
        if any(not is_number(b) for b in bounds) or \
                bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            errors.append(f"{label}: bounds not strictly increasing")
        if any(not isinstance(b, int) or b < 0 for b in buckets):
            errors.append(f"{label}: bucket counts must be ints >= 0")
        elif hist.get("count") != sum(buckets):
            errors.append(f"{label}: count {hist.get('count')} != "
                          f"sum(buckets) {sum(buckets)}")
        if not is_number(hist.get("sum")):
            errors.append(f"{label}: missing numeric 'sum'")


def check_trial(record, where, errors):
    if not isinstance(record.get("protocol"), str):
        errors.append(f"{where}: trial missing string 'protocol'")
    for field in TRIAL_NUMERIC_FIELDS:
        if not is_number(record.get(field)):
            errors.append(f"{where}: trial missing numeric '{field}'")


SAMPLE_RE = re.compile(
    r'^([A-Za-z_:][A-Za-z0-9_:]*)'          # metric name
    r'(?:\{([^}]*)\})?'                     # optional {labels}
    r' (nan|[+-]?(?:inf|Inf|[0-9].*))$')    # value (one space separator)


def prom_base_name(name):
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[:-len(suffix)]
    return name


def check_prom_file(path, errors, metrics_seen):
    """Validate one Prometheus 0.0.4 text file; returns the sample count."""
    typed = {}       # metric name -> declared type
    histograms = {}  # name -> {"last": float, "inf": float|None,
                     #          "sum": bool, "count": float|None}
    samples = 0
    with open(path) as f:
        for i, raw in enumerate(f, 1):
            where = f"{path}:{i}"
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line.split()
                if len(parts) >= 2 and parts[1] == "TYPE":
                    if len(parts) != 4:
                        errors.append(f"{where}: malformed # TYPE line")
                        continue
                    name, kind = parts[2], parts[3]
                    if not name.startswith("cid_"):
                        errors.append(
                            f"{where}: metric {name!r} lacks the cid_ prefix")
                    if kind not in ("counter", "gauge", "histogram"):
                        errors.append(f"{where}: unknown TYPE {kind!r}")
                    if name in typed:
                        errors.append(f"{where}: duplicate TYPE for {name!r}")
                    typed[name] = kind
                    if kind == "histogram":
                        histograms[name] = {"last": None, "inf": None,
                                            "sum": False, "count": None}
                continue  # other comments are legal and ignored
            match = SAMPLE_RE.match(line)
            if not match:
                errors.append(f"{where}: unparseable sample: {line!r}")
                continue
            samples += 1
            name, labels, text = match.groups()
            base = prom_base_name(name)
            kind = typed.get(name) if name in typed else typed.get(base)
            if kind is None:
                errors.append(f"{where}: sample {name!r} has no preceding "
                              f"# TYPE declaration")
                continue
            metrics_seen.add(name)
            metrics_seen.add(base)
            try:
                value = float(text)
            except ValueError:
                errors.append(f"{where}: bad sample value {text!r}")
                continue
            if kind == "counter" and value < 0:
                errors.append(f"{where}: counter {name!r} is negative")
            if kind == "histogram" and base in histograms:
                state = histograms[base]
                if name.endswith("_bucket"):
                    if 'le="' not in (labels or ""):
                        errors.append(f"{where}: bucket without an le label")
                    elif 'le="+Inf"' in labels:
                        state["inf"] = value
                    elif state["inf"] is not None:
                        errors.append(f"{where}: bucket after le=\"+Inf\"")
                    if state["last"] is not None and value < state["last"]:
                        errors.append(f"{where}: cumulative bucket counts "
                                      f"of {base!r} decreased")
                    state["last"] = value
                elif name.endswith("_sum"):
                    state["sum"] = True
                elif name.endswith("_count"):
                    state["count"] = value
    for name, state in histograms.items():
        if state["inf"] is None or not state["sum"] or state["count"] is None:
            errors.append(f"{path}: histogram {name!r} missing "
                          f"le=\"+Inf\" bucket, _sum, or _count")
        elif state["count"] != state["inf"]:
            errors.append(f"{path}: histogram {name!r} _count "
                          f"{state['count']} != +Inf bucket {state['inf']}")
    if samples == 0:
        errors.append(f"{path}: no samples")
    return samples


def check_file(path, errors, kinds_seen, metrics_seen):
    state = {}
    lines = 0
    with open(path) as f:
        for i, line in enumerate(f, 1):
            where = f"{path}:{i}"
            line = line.strip()
            if not line:
                errors.append(f"{where}: blank line")
                continue
            lines += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                errors.append(f"{where}: not valid JSON: {e}")
                continue
            if not isinstance(record, dict):
                errors.append(f"{where}: line is not a JSON object")
                continue
            if record.get("metrics_version") != METRICS_VERSION:
                errors.append(f"{where}: metrics_version != "
                              f"{METRICS_VERSION}: "
                              f"{record.get('metrics_version')!r}")
            kind = record.get("kind")
            kinds_seen.add(kind)
            if kind == "snapshot":
                check_snapshot(record, where, errors, state)
                counters = record.get("counters")
                if isinstance(counters, dict):
                    metrics_seen.update(counters)
                for hist in record.get("histograms") or []:
                    if isinstance(hist, dict) and hist.get("name"):
                        metrics_seen.add(hist["name"])
            elif kind == "trial":
                check_trial(record, where, errors)
            else:
                errors.append(f"{where}: unknown kind {kind!r}")
    if lines == 0:
        errors.append(f"{path}: empty file")
    return lines


def main():
    paths, required_kinds, required_metrics = [], [], []
    prom = False
    args = iter(sys.argv[1:])
    for arg in args:
        if arg == "--require-kind":
            required_kinds.append(next(args, None))
        elif arg == "--require-metric":
            required_metrics.append(next(args, None))
        elif arg == "--prom":
            prom = True
        else:
            paths.append(arg)
    if not paths or None in required_kinds or None in required_metrics:
        print(__doc__, file=sys.stderr)
        return 2
    if prom and required_kinds:
        print("FAIL: --require-kind applies to JSONL mode only",
              file=sys.stderr)
        return 2
    errors = []
    kinds_seen = set()
    metrics_seen = set()
    if prom:
        total = sum(check_prom_file(p, errors, metrics_seen) for p in paths)
    else:
        total = sum(check_file(p, errors, kinds_seen, metrics_seen)
                    for p in paths)
    for kind in required_kinds:
        if kind not in kinds_seen:
            errors.append(f"no '{kind}' record in {', '.join(paths)}")
    for name in required_metrics:
        if name not in metrics_seen:
            errors.append(f"no '{name}' metric in {', '.join(paths)}")
    for err in errors:
        print(f"FAIL: {err}")
    if errors:
        print(f"FAIL: {len(errors)} schema violation(s)")
        return 1
    unit = "sample(s)" if prom else "metrics record(s)"
    kinds = "" if prom else (
        ", kinds: " + ", ".join(sorted(k for k in kinds_seen if k)))
    print(f"OK: {total} {unit} across {len(paths)} file(s){kinds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
