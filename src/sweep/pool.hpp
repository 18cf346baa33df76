// Deterministic parallel execution substrate for the sweep runtime.
//
// The contract that makes the whole subsystem reproducible lives here:
// every job's randomness is a pure function of its index — run_sweep
// derives each trial's stream inside the job with the O(1) keyed
// derive_trial_rng, map_trials splits its master serially before any
// worker starts — and every job writes only to its own pre-allocated
// output slot (or under its caller's lock). Scheduling — which thread
// runs which job, in which order — then cannot influence results, so a
// sweep is bitwise identical for every thread count, including the serial
// threads=1 path the analysis harness has always used.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/rng.hpp"

namespace cid::sweep {

/// Resolves a requested worker count: values >= 1 pass through; 0 means
/// "one per hardware thread" (floored at 1 when the hardware is coy).
int resolve_threads(int requested);

/// Runs fn(0..count-1) on min(threads, count, 256) workers: the caller
/// plus threads spawned for this call and joined before it returns. Each
/// worker claims the next index off a shared atomic cursor. fn must
/// confine its writes to per-index slots; the workers impose no ordering.
/// The first exception any job throws stops further claims and is
/// rethrown on the caller's thread after the join. threads == 1 is a
/// plain inline loop on the caller's thread.
void parallel_for(std::int64_t count, int threads,
                  const std::function<void(std::int64_t)>& fn);

/// Deterministic parallel trial map: slot t receives fn(child_t), where
/// child_t is the t-th Rng::split of a master stream seeded with
/// master_seed — the exact seeding discipline of the serial analysis
/// harness, which this function generalizes.
std::vector<double> map_trials(int trials, std::uint64_t master_seed,
                               const std::function<double(Rng&)>& fn,
                               int threads = 1);

}  // namespace cid::sweep
