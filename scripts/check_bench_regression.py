#!/usr/bin/env python3
"""Gate CI on bench wall-clock: fail when the fresh BENCH_<name>.json is
more than THRESHOLD (default 25%) slower than the checked-in baseline.

Usage: check_bench_regression.py BASELINE.json CANDIDATE.json [THRESHOLD]

Only wall-clock fields are gated — they are the one legitimately
hardware-dependent output, and the threshold absorbs runner noise. When
the two reports cover different cell sets (a PR added or removed bench
cells), the gate compares the summed per-cell wall over the SHARED cells
instead of the report totals, so new cells don't read as regressions. The
deterministic result fields are compared too. Most only WARN on drift
(an intentional algorithm change may move them, and the reviewer should
see that in the job log rather than silently), but the WORK counters are
gated direction-sensitively: a cell doing MORE latency evaluations per
round, or pruning a SMALLER fraction of support rows, than the
checked-in baseline fails the gate — those are the exact quantities the
engine PRs optimised, and runner hardware cannot move them.
Improvements (fewer evals, more pruning) only warn, as a nudge to
refresh the baseline. A work counter present in a baseline cell but
missing from the matching candidate cell fails the gate: every build
emits every counter, so a missing one means the bench stopped measuring
it. A counter only the candidate emits (newly added) is skipped.

Works for every JsonReport bench: cells are keyed by their "id" metric when
present (bench_engine_micro) or by "n" (bench_convergence_n), and every
shared metric except the hardware-dependent ones (wall/rate fields) is
drift-checked.
"""
import json
import sys

# Per-cell metrics that legitimately vary with the runner: never warn.
# (bench_convergence_n emits cell_wall_seconds, bench_engine_micro
# wall_cell_seconds; both are wall clocks.)
HARDWARE_DEPENDENT = {"wall_seconds", "wall_cell_seconds",
                      "cell_wall_seconds", "rounds_per_sec", "evals_per_sec"}

# Deterministic work counters, gated direction-sensitively: (metric name,
# bad direction, relative tolerance). "up" fails when the candidate value
# exceeds baseline * (1 + tol); "down" fails when it falls below
# baseline * (1 - tol). The tolerance absorbs seed-path wobble from
# intentional cell re-specs, not hardware (these fields are bit-exact
# across runners for an unchanged binary).
WORK_COUNTER_GATES = [
    ("evals_per_round", "up", 0.01),
    ("rows_pruned_fraction", "down", 0.01),
    # Telemetry-derived hitting time (bench_convergence_n): mean sampled
    # round where Phi first enters the 10%-of-final neighborhood. More
    # rounds than the baseline = the dynamics converge slower.
    ("rounds_to_eps", "up", 0.01),
]


def gate_work_counter(label, metric, bad_direction, tol, base, cand):
    """Returns an error string when the candidate regressed the counter,
    None otherwise (printing a WARNING for in-tolerance or improving
    drift so the log still surfaces it)."""
    b, c = float(base), float(cand)
    if b == c:
        return None
    if bad_direction == "up":
        regressed = c > b * (1.0 + tol)
    else:
        regressed = c < b * (1.0 - tol)
    if regressed:
        return (f"{label} {metric} regressed: {b} -> {c} "
                f"(bad direction: {bad_direction}, tol {tol:.0%})")
    print(f"WARNING: {label} {metric} drifted {b} -> {c} "
          f"(improvement or within tolerance; refresh the baseline?)")
    return None


def load(path):
    with open(path) as f:
        return json.load(f)


def cell_key(cell):
    if "id" in cell:
        return ("id", cell["id"])
    if "n" in cell:
        return ("n", cell["n"])
    return None


def index_cells(report):
    out = {}
    for cell in report.get("cells", []):
        key = cell_key(cell)
        if key is not None:
            out[key] = cell
    return out


def shared_cell_wall(base_cells, cand_cells):
    """Summed per-cell wall over the cells PRESENT IN BOTH reports, when
    both sides carry a per-cell wall metric. A PR that adds bench cells
    must not fail the gate merely because the base ref never ran them —
    the shared subset is the apples-to-apples comparison. Returns
    (base_wall, cand_wall) or None when per-cell walls are unavailable."""
    shared = set(base_cells) & set(cand_cells)
    if not shared or shared == set(base_cells) | set(cand_cells):
        return None  # identical cell sets: the report totals are fair
    base = cand = 0.0
    for key in shared:
        walls = [m for m in ("wall_cell_seconds", "cell_wall_seconds")
                 if m in base_cells[key] and m in cand_cells[key]]
        if not walls:
            return None
        base += float(base_cells[key][walls[0]])
        cand += float(cand_cells[key][walls[0]])
    return base, cand


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load(sys.argv[1])
    candidate = load(sys.argv[2])
    threshold = float(sys.argv[3]) if len(sys.argv) > 3 else 0.25

    base_cells = index_cells(baseline)
    cand_cells = index_cells(candidate)
    base_wall = float(baseline["wall_seconds"])
    cand_wall = float(candidate["wall_seconds"])
    scope = "wall_seconds"
    shared = shared_cell_wall(base_cells, cand_cells)
    if shared is not None:
        base_wall, cand_wall = shared
        scope = "shared-cell wall"
    ratio = cand_wall / base_wall if base_wall > 0 else float("inf")
    print(f"bench {candidate.get('bench', '?')}: {scope} "
          f"{base_wall:.4f} (baseline) -> {cand_wall:.4f} (candidate), "
          f"ratio {ratio:.2f}x, threshold {1 + threshold:.2f}x")

    # Deterministic-field drift: work counters gate, the rest inform.
    errors = []
    gated = {name for name, _, _ in WORK_COUNTER_GATES}
    for key in sorted(set(base_cells) | set(cand_cells)):
        label = f"{key[0]}={key[1]}"
        if key not in base_cells or key not in cand_cells:
            print(f"WARNING: cell {label} present in only one report")
            continue
        shared = set(base_cells[key]) & set(cand_cells[key])
        for name, bad_direction, tol in WORK_COUNTER_GATES:
            if name not in base_cells[key]:
                continue
            if name not in cand_cells[key]:
                errors.append(f"{label} {name} missing from the candidate "
                              f"(the baseline measured it)")
                continue
            err = gate_work_counter(label, name, bad_direction, tol,
                                    base_cells[key][name],
                                    cand_cells[key][name])
            if err is not None:
                errors.append(err)
        for metric in sorted(shared - HARDWARE_DEPENDENT - gated
                             - {key[0]}):
            b, c = base_cells[key][metric], cand_cells[key][metric]
            if b != c:
                print(f"WARNING: {label} {metric} drifted: {b} -> {c} "
                      f"(intentional? update the baseline)")

    for err in errors:
        print(f"FAIL: {err}")
    if errors:
        print(f"FAIL: {len(errors)} work-counter regression(s) — the "
              f"engine is doing more work per round than the baseline")
        return 1
    if ratio > 1 + threshold:
        print(f"FAIL: wall-clock regression {ratio:.2f}x exceeds "
              f"{1 + threshold:.2f}x")
        return 1
    print("OK: within the wall-clock budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
