// Shared helpers for the experiment binaries (bench/).
//
// Each bench binary E1..E12 regenerates one of the paper's claims as a
// table; its header comment names the claim and what it reproduces. These
// helpers standardize instance construction and hitting-time measurement
// so benches stay declarative.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cid/cid.hpp"

namespace cid::bench {

/// Machine-readable bench output: collect named scalar cells while the
/// bench prints its human tables, then call write_if_requested(argc, argv)
/// at the end. If the bench was invoked with `--json PATH`, the report is
/// written as JSON — to PATH itself when it ends in ".json", else to
/// PATH/BENCH_<name>.json — so the perf trajectory of every experiment can
/// be tracked across commits. Without the flag this is a no-op.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {
    timer_.reset();
  }

  /// Starts a new cell (one row of the bench's table); subsequent metric()
  /// calls attach to it.
  JsonReport& cell() {
    cells_.emplace_back();
    return *this;
  }

  JsonReport& metric(const std::string& key, double value) {
    if (cells_.empty()) cells_.emplace_back();
    cells_.back().emplace_back(key, value);
    return *this;
  }

  /// Scans argv for "--json PATH"; writes and returns true when present.
  /// An unwritable path is reported on stderr rather than thrown — by the
  /// time this runs the bench has already printed its tables, and losing
  /// them to a bad report path helps nobody.
  bool write_if_requested(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "bench --json: missing PATH argument\n");
          return false;
        }
        try {
          write(argv[i + 1]);
          return true;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bench --json: %s\n", e.what());
          return false;
        }
      }
    }
    return false;
  }

  void write(const std::string& path) const {
    const std::string ext = ".json";
    const bool is_file = path.size() >= ext.size() &&
                         path.compare(path.size() - ext.size(),
                                      ext.size(), ext) == 0;
    const std::string target =
        is_file ? path : path + "/BENCH_" + name_ + ".json";
    std::ofstream out(target);
    if (!out) {
      throw std::runtime_error("cannot open '" + target + "' for writing");
    }
    out << "{\"bench\":\"" << name_ << "\",\"wall_seconds\":"
        << format(timer_.seconds()) << ",\"cells\":[";
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      out << (c == 0 ? "" : ",") << '{';
      for (std::size_t k = 0; k < cells_[c].size(); ++k) {
        out << (k == 0 ? "" : ",") << '"' << cells_[c][k].first
            << "\":" << format(cells_[c][k].second);
      }
      out << '}';
    }
    out << "]}\n";
    out.flush();
    if (!out) {
      throw std::runtime_error("write failed (disk full?) for '" + target +
                               "'");
    }
  }

 private:
  static std::string format(double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
  }

  std::string name_;
  WallTimer timer_;
  std::vector<std::vector<std::pair<std::string, double>>> cells_;
};

/// Deterministic skewed start with fixed relative imbalance; see
/// State::geometric_skew (shared with the sweep runtime's skewed starts).
inline State geometric_skew_state(const CongestionGame& game) {
  return State::geometric_skew(game);
}

/// m links with monomial latencies a_e·x^d, a_e spread over [1, 2]; see
/// make_monomial_fan_game (shared with the sweep runtime's
/// singleton-uniform scenario).
inline CongestionGame monomial_links_game(std::int32_t m, double degree,
                                          std::int64_t n) {
  return make_monomial_fan_game(m, degree, 1.0, n);
}

struct HittingTime {
  double mean_rounds = 0.0;
  double sem = 0.0;
  double fraction_converged = 1.0;
};

/// Mean rounds until `stop` fires, over independent trials, starting from
/// `make_start(rng)`. Non-converged trials count at the cap (reported via
/// fraction_converged).
template <typename MakeStart>
HittingTime time_to(const CongestionGame& game, const Protocol& protocol,
                    const MakeStart& make_start, const StopPredicate& stop,
                    int trials, std::uint64_t seed, std::int64_t max_rounds,
                    std::int64_t check_interval = 1) {
  int converged = 0;
  const TrialSet set = run_trials(trials, seed, [&](Rng& rng) {
    State x = make_start(rng);
    RunOptions options;
    options.max_rounds = max_rounds;
    options.check_interval = check_interval;
    const RunResult rr = run_dynamics(game, x, protocol, rng,
                                      {.options = options, .stop = stop});
    if (rr.converged) ++converged;
    return static_cast<double>(rr.rounds);
  });
  return HittingTime{set.summary.mean, set.sem,
                     static_cast<double>(converged) /
                         static_cast<double>(trials)};
}

inline StopPredicate stop_at_delta_eps(double delta, double eps) {
  return [delta, eps](const CongestionGame& g, const State& s,
                      std::int64_t) {
    return is_delta_eps_equilibrium(g, s, delta, eps);
  };
}

inline StopPredicate stop_at_imitation_stable() {
  return [](const CongestionGame& g, const State& s, std::int64_t) {
    return is_imitation_stable(g, s, g.nu());
  };
}

inline StopPredicate stop_at_nash() {
  return [](const CongestionGame& g, const State& s, std::int64_t) {
    return is_nash(g, s);
  };
}

}  // namespace cid::bench
