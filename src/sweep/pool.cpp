#include "sweep/pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "util/assert.hpp"

namespace cid::sweep {

int resolve_threads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallel_for(std::int64_t count, int threads,
                  const std::function<void(std::int64_t)>& fn) {
  CID_ENSURE(count >= 0, "parallel_for requires count >= 0");
  CID_ENSURE(static_cast<bool>(fn), "parallel_for requires a callable");
  constexpr std::int64_t kMaxWorkers = 256;
  const std::int64_t workers =
      std::min({static_cast<std::int64_t>(resolve_threads(threads)), count,
                kMaxWorkers});
  if (workers <= 1) {
    for (std::int64_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // The first failing job stops every worker from claiming more and is
  // rethrown here once all of them have joined.
  std::atomic<std::int64_t> cursor{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto work = [&] {
    for (std::int64_t i = cursor.fetch_add(1); i < count;
         i = cursor.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        cursor.store(count);
        return;
      }
    }
  };
  // The caller is one of the workers, so a helper that fails to start
  // only leaves more of the indices to the others.
  std::vector<std::thread> helpers;
  helpers.reserve(static_cast<std::size_t>(workers - 1));
  try {
    while (static_cast<std::int64_t>(helpers.size()) + 1 < workers) {
      helpers.emplace_back(work);
    }
  } catch (const std::system_error&) {
  }
  work();
  for (std::thread& helper : helpers) helper.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<double> map_trials(int trials, std::uint64_t master_seed,
                               const std::function<double(Rng&)>& fn,
                               int threads) {
  CID_ENSURE(trials >= 1, "need at least one trial");
  CID_ENSURE(static_cast<bool>(fn), "trial function must be callable");

  // Serial derivation of the per-trial streams: this is the only place the
  // master stream advances, so the set of child streams is a pure function
  // of master_seed — identical for every thread count.
  Rng master(master_seed);
  std::vector<Rng> streams;
  streams.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    streams.push_back(master.split(static_cast<std::uint64_t>(t)));
  }

  std::vector<double> values(static_cast<std::size_t>(trials), 0.0);
  parallel_for(trials, threads, [&](std::int64_t t) {
    values[static_cast<std::size_t>(t)] = fn(streams[static_cast<std::size_t>(t)]);
  });
  return values;
}

}  // namespace cid::sweep
