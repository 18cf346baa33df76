// cid_serve — trial-lease coordinator for live distributed sweeps.
//
//   cid_serve --scenario NAME --manifest PATH
//             [--grid SPEC] [--protocols CSV] [--trials T] [--seed S]
//             [--rounds N] [--check-interval C] [--stop C] [--engine E]
//             [--param K=V ...] [--lambda L]
//             [--host H] [--port P] [--port-file F]
//             [--lease-ttl SEC] [--tick SEC] [--wait-backoff MS]
//             [--max-requeues N] [--max-seconds SEC]
//             [--final-manifest PATH]
//             [--metrics-http [PORT]] [--metrics-port-file F]
//             [--metrics-prom PATH]
//             [--inject-faults SPEC] [--verbose]
//
// Loads (or resumes) a manifest for the given grid, then serves the
// grid's trials as time-bounded leases to cid_sweep --connect workers
// over a length-prefixed JSON protocol (src/serve/proto.hpp). Expired,
// requeued, and dropped-connection leases are reclaimed and re-granted;
// because trial outcomes are a pure function of (grid, master_seed), the
// final canonical manifest is byte-identical to an unsharded
// `cid_sweep --threads 1` run's — whichever workers did the work, however
// many died along the way.
//
// The grid flags must MATCH the workers' flags: the handshake compares
// grid fingerprints and rejects mismatched workers, exactly like manifest
// resume does. Both tools parse and validate them with
// sweep::parse_grid_flag / finish_grid_flags.
//
// --metrics-http exposes the fleet-level Prometheus text endpoint
// (coordinator serve.*/persist.* counters, the lease-latency histogram,
// plus the sum of every worker's pushed registry snapshot);
// --metrics-prom writes the same exposition to a file at exit.
//
// Exit status: 0 grid drained clean; 2 usage; 3 incomplete (trials
// exceeded --max-requeues, or --max-seconds elapsed); 1 fatal error.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "cid/cid.hpp"
#include "serve/coordinator.hpp"
#include "serve/net.hpp"
#include "util/fault.hpp"

namespace {

using namespace cid;

[[noreturn]] void usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: cid_serve --scenario NAME --manifest PATH [options]\n"
      "  grid (must match the workers' flags; the handshake checks the\n"
      "  grid fingerprint):\n"
      "  --scenario NAME   scenario to sweep\n"
      "  --grid SPEC       n axis: A:B:log[:K] | A:B:lin[:K] | v1,v2,...\n"
      "                    (default 1000:100000:log)\n"
      "  --protocols CSV   imitation,exploration,combined[:P]\n"
      "  --trials T        trials per cell, default 8\n"
      "  --seed S          master seed, default 1\n"
      "  --rounds N        round cap per trial, default 100000\n"
      "  --check-interval C  stop-check stride, default 1\n"
      "  --stop C          stable | nash | deltaeps:D,E\n"
      "  --engine E        aggregate (default) | perplayer\n"
      "  --param K=V       scenario parameter (repeatable)\n"
      "  --lambda L        protocol migration scale, default 0.25\n"
      "  serving:\n"
      "  --manifest PATH   live append manifest (required; an existing\n"
      "                    file resumes — its trials are never re-granted)\n"
      "  --final-manifest PATH  write the canonical (cell,trial)-sorted\n"
      "                    manifest here when the grid drains (default:\n"
      "                    rewrite --manifest in place)\n"
      "  --host H          bind address, default 127.0.0.1\n"
      "  --port P          lease port, default 0 (ephemeral)\n"
      "  --port-file F     write the bound lease port here\n"
      "  --lease-ttl SEC   lease time-to-live, default 30\n"
      "  --tick SEC        poll/expiry cadence, default 0.05\n"
      "  --wait-backoff MS backoff told to workers when all trials are\n"
      "                    leased, default 100\n"
      "  --max-requeues N  reclaims per trial before it is declared\n"
      "                    failed, default 8\n"
      "  --max-seconds SEC wall limit; exit 3 incomplete (default: none)\n"
      "  fleet metrics:\n"
      "  --metrics-http [PORT]  serve the fleet Prometheus text endpoint\n"
      "                    (0/omitted = ephemeral port)\n"
      "  --metrics-port-file F  write the bound metrics port here\n"
      "  --metrics-prom PATH    write the final fleet exposition here\n"
      "  other:\n"
      "  --inject-faults SPEC  arm deterministic fault injection (sites\n"
      "                    net.accept, serve.lease_expire, ...)\n"
      "  --verbose         per-event log on stderr\n");
  std::exit(error == nullptr ? 0 : 2);
}

struct Options {
  sweep::SweepGrid grid;
  serve::CoordinatorOptions serve;
  std::string fault_spec;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  sweep::GridFlags flags;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("missing value for flag");
    return argv[++i];
  };
  constexpr std::int64_t kPortMax = 65535;
  constexpr double kSecondsMax = 1e6;  // converted to int64 nanoseconds
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") usage(nullptr);
    else if (sweep::parse_grid_flag(argc, argv, i, flags)) continue;
    else if (flag == "--manifest") opt.serve.manifest_path = need_value(i);
    else if (flag == "--final-manifest") {
      opt.serve.final_manifest_path = need_value(i);
    } else if (flag == "--host") opt.serve.host = need_value(i);
    else if (flag == "--port") {
      opt.serve.port = static_cast<std::uint16_t>(
          sweep::parse_int_flag(flag, need_value(i), 0, kPortMax));
    } else if (flag == "--port-file") opt.serve.port_file = need_value(i);
    else if (flag == "--lease-ttl") {
      opt.serve.lease_ttl_seconds =
          sweep::parse_double_flag(flag, need_value(i), 1e-3, kSecondsMax);
    } else if (flag == "--tick") {
      opt.serve.tick_seconds =
          sweep::parse_double_flag(flag, need_value(i), 1e-3, kSecondsMax);
    } else if (flag == "--wait-backoff") {
      opt.serve.wait_backoff_ms = sweep::parse_int_flag(flag, need_value(i), 0);
    } else if (flag == "--max-requeues") {
      opt.serve.max_requeues = static_cast<int>(sweep::parse_int_flag(
          flag, need_value(i), 1, std::numeric_limits<int>::max()));
    } else if (flag == "--max-seconds") {
      opt.serve.max_seconds =
          sweep::parse_double_flag(flag, need_value(i), 0.0, kSecondsMax);
    } else if (flag == "--metrics-http") {
      opt.serve.metrics_http = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        opt.serve.metrics_port = static_cast<std::uint16_t>(
            sweep::parse_int_flag("--metrics-http", argv[++i], 0, kPortMax));
      }
    } else if (flag == "--metrics-port-file") {
      opt.serve.metrics_port_file = need_value(i);
    } else if (flag == "--metrics-prom") {
      opt.serve.metrics_prom_path = need_value(i);
    } else if (flag == "--inject-faults") {
      opt.fault_spec = need_value(i);
    } else if (flag == "--verbose") opt.serve.verbose = true;
    else usage(("unknown flag: " + flag).c_str());
  }
  opt.grid = sweep::finish_grid_flags(flags);
  if (opt.serve.manifest_path.empty()) usage("--manifest is required");
  if (opt.serve.lease_ttl_seconds <= 0.0) {
    usage("--lease-ttl must be > 0");
  }
  if (opt.serve.tick_seconds <= 0.0) usage("--tick must be > 0");
  if (opt.serve.max_seconds < 0.0) usage("--max-seconds must be >= 0");
  if (!opt.fault_spec.empty()) util::configure_faults(opt.fault_spec);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const sweep::UsageError& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    opt.serve.on_listening = [&](std::uint16_t lease_port,
                                 std::uint16_t metrics_port) {
      std::printf("cid_serve: leases on %s:%u", opt.serve.host.c_str(),
                  lease_port);
      if (metrics_port != 0) {
        std::printf(", fleet /metrics on %s:%u", opt.serve.host.c_str(),
                    metrics_port);
      }
      std::printf("\n");
      std::fflush(stdout);
    };
    const serve::CoordinatorReport report =
        serve::serve_grid(opt.grid, opt.serve);

    std::printf(
        "served %zu/%zu trials (%zu resumed, %zu failed) to %zu worker(s)\n",
        report.trials_completed, report.trials_total, report.trials_resumed,
        report.trials_failed, report.workers_seen);
    std::printf(
        "leases: %zu granted, %zu expired, %zu reclaimed from dropped "
        "connections, %zu worker requeues, %zu stale completions "
        "rejected\n",
        report.leases_granted, report.leases_expired,
        report.leases_disconnected, report.requeues,
        report.completions_rejected);
    if (util::faults_armed()) {
      std::printf("faults injected: %lld\n",
                  static_cast<long long>(util::faults_injected()));
    }
    if (report.timed_out) {
      std::printf("cid_serve: --max-seconds elapsed before the grid "
                  "drained; exiting 3\n");
      return 3;
    }
    if (!report.complete) {
      std::printf("cid_serve: grid INCOMPLETE (%zu trial(s) permanently "
                  "failed); exiting 3\n",
                  report.trials_failed);
      return 3;
    }
    std::printf("grid drained; canonical manifest at %s\n",
                opt.serve.final_manifest_path.empty()
                    ? opt.serve.manifest_path.c_str()
                    : opt.serve.final_manifest_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cid_serve: %s\n", e.what());
    return 1;
  }
}
