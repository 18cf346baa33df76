// Link-time span recorder for the traced benchmark binaries.
//
// cid_sweep_traced and cid_serve_traced are the unmodified tools/
// cid_sweep.cpp and tools/cid_serve.cpp linked against the unmodified libcid
// with `-Wl,--wrap=SYMBOL` for each public call listed below. The linker
// routes every cross-object call to SYMBOL through __wrap_SYMBOL here, which
// opens a span, calls __real_SYMBOL (the library's own definition) and
// closes the span. Nothing in src/ is instrumented: the spans time the
// calls into each module's public functions from outside.
//
//   game     sweep::make_scenario; the returned instance is wrapped so its
//            virtual run_trial calls and its destruction are timed too
//   sweep    sweep::run_sweep, sweep::derive_trial_rng, run_trial
//   persist  persist::load_manifest, ManifestWriter::{create,
//            open_for_append, append, close}, write_manifest_canonical
//   serve    serve::serve_grid, serve::run_worker, serve::tcp_connect, and
//            one span per worker RPC: serve::send_frame up to the end of the
//            next serve::read_some on the same thread
//
// Spans (name, start, end, parent, thread) are kept in memory and written
// once, at process exit, to "$CID_BENCH_SPANS.<pid>.bin": one JSON header
// line (run id from $CID_BENCH_RUN_ID, pid, role, span names, counters from
// the wrapped calls' reports and obs::persist_io_totals()), then fixed-size
// little-endian SpanRecord structs. Timestamps are CLOCK_MONOTONIC
// nanoseconds, the clock run.py stamps process spawn and exit
// with. Without $CID_BENCH_SPANS nothing is written.
//
// Local sweeps derive their trial streams inside run_sweep, where no call
// crosses an object boundary. After run_sweep returns, its wrapper replays
// the same derive_trial_rng calls in a "bench.*" span, which run.py
// cuts out of the workload's wall time.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "obs/metrics.hpp"
#include "persist/manifest.hpp"
#include "serve/coordinator.hpp"
#include "serve/net.hpp"
#include "serve/worker.hpp"
#include "sweep/runner.hpp"
#include "sweep/scenario.hpp"

namespace {

enum SpanName : std::int32_t {
  kGameBuild,
  kGameFree,
  kTrial,
  kStreamDerive,
  kSweepRun,
  kReplayDerive,
  kManifestLoad,
  kManifestOpen,
  kManifestAppend,
  kManifestClose,
  kCanonicalWrite,
  kCoordinator,
  kWorker,
  kConnect,
  kRpcHello,
  kRpcLease,
  kRpcComplete,
  kRpcMetrics,
  kRpcRenew,
  kRpcRequeue,
  kRpcBye,
  kRpcOther,
  kDump,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "game.build",
    "game.free",
    "sweep.trial",
    "sweep.stream_derive",
    "sweep.run",
    "bench.replay.stream_derive",
    "persist.manifest_load",
    "persist.manifest_open",
    "persist.manifest_append",
    "persist.manifest_close",
    "persist.canonical_write",
    "serve.coordinator",
    "serve.worker",
    "serve.connect",
    "serve.rpc.hello",
    "serve.rpc.lease",
    "serve.rpc.complete",
    "serve.rpc.metrics",
    "serve.rpc.renew",
    "serve.rpc.requeue",
    "serve.rpc.bye",
    "serve.rpc.other",
    "bench.dump",
};

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  std::int64_t parent = -1;  // index of the enclosing span on this thread
  std::int64_t arg = 0;
  std::int32_t name = 0;
  std::int32_t thread = 0;
};
static_assert(sizeof(SpanRecord) == 40, "layout read by e2ebench/layers.py");

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

struct Recorder {
  std::mutex mutex;
  std::vector<SpanRecord> spans;                 // guarded by mutex
  std::map<std::string, std::int64_t> counters;  // guarded by mutex
  std::int32_t next_thread = 0;                  // guarded by mutex
  std::atomic<bool> worker{false};  // set by run_worker before its first RPC
};

Recorder& recorder() {
  static Recorder* r = new Recorder;  // never destroyed: the exit dump reads it
  return *r;
}

struct ThreadState {
  std::int32_t id = -1;
  std::vector<std::int64_t> open;  // stack of open span indices
  std::int64_t pending_rpc = -1;   // RPC span awaiting its response
};
thread_local ThreadState tls;

std::int64_t begin_span(SpanName name, std::int64_t arg, bool nest) {
  Recorder& r = recorder();
  const std::int64_t start = now_ns();
  std::int64_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    if (tls.id < 0) tls.id = r.next_thread++;
    index = static_cast<std::int64_t>(r.spans.size());
    r.spans.push_back({start, -1, tls.open.empty() ? -1 : tls.open.back(),
                       arg, name, tls.id});
  }
  if (nest) tls.open.push_back(index);
  return index;
}

void end_span(std::int64_t index, bool nested) {
  const std::int64_t end = now_ns();
  Recorder& r = recorder();
  {
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.spans[static_cast<std::size_t>(index)].end_ns = end;
  }
  if (nested) tls.open.pop_back();
}

void add_counter(const std::string& name, std::int64_t value) {
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.counters[name] += value;
}

/// RAII span: closes on every exit path, exceptions included.
class Span {
 public:
  explicit Span(SpanName name, std::int64_t arg = 0)
      : index_(begin_span(name, arg, /*nest=*/true)) {}
  ~Span() { end_span(index_, /*nested=*/true); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_;
};

void write_spans() {
  const char* prefix = std::getenv("CID_BENCH_SPANS");
  if (prefix == nullptr || *prefix == '\0') return;
  const std::int64_t dump_start = now_ns();
  const std::string path =
      std::string(prefix) + "." + std::to_string(::getpid()) + ".bin";
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "trace shim: cannot write %s\n", path.c_str());
    return;
  }
  const cid::obs::PersistIoTotals io = cid::obs::persist_io_totals();
  Recorder& r = recorder();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.counters["persist.bytes_written"] += io.bytes_written;
  r.counters["persist.writes"] += io.writes;
  r.counters["persist.fsyncs"] += io.fsyncs;
  r.counters["persist.fflushes"] += io.fflushes;
  r.counters["persist.write_retries"] += io.write_retries;
  r.counters["persist.write_failures"] += io.write_failures;

  // The run id comes from run.py; keep only characters that
  // need no JSON escaping.
  std::string run_id;
  if (const char* id = std::getenv("CID_BENCH_RUN_ID")) {
    for (const char* c = id; *c != '\0'; ++c) {
      if (*c != '"' && *c != '\\' && static_cast<unsigned char>(*c) >= 0x20) {
        run_id += *c;
      }
    }
  }
  std::fprintf(out, "{\"run_id\":\"%s\",\"pid\":%d,\"role\":\"%s\",\"names\":[",
               run_id.c_str(), static_cast<int>(::getpid()),
               r.worker ? "worker" : "main");
  for (int i = 0; i < kNumSpanNames; ++i) {
    std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ",", kSpanNames[i]);
  }
  std::fprintf(out, "],\"counters\":{");
  bool first = true;
  for (const auto& [name, value] : r.counters) {
    std::fprintf(out, "%s\"%s\":%lld", first ? "" : ",", name.c_str(),
                 static_cast<long long>(value));
    first = false;
  }
  std::fprintf(out, "}}\n");
  std::fwrite(r.spans.data(), sizeof(SpanRecord), r.spans.size(), out);
  SpanRecord dump;
  dump.start_ns = dump_start;
  dump.name = kDump;
  dump.end_ns = now_ns();
  std::fwrite(&dump, sizeof dump, 1, out);
  if (std::fclose(out) != 0) {
    std::fprintf(stderr, "trace shim: short write to %s\n", path.c_str());
  }
}

[[gnu::constructor]] void install_dump() {
  recorder();
  std::atexit(write_spans);
}

using cid::sweep::DynamicsConfig;
using cid::sweep::ProtocolSpec;
using cid::sweep::ScenarioInstance;
using cid::sweep::TrialCheckpoint;
using cid::sweep::TrialOutcome;
using cid::sweep::TrialStats;

/// Forwards every call to the library's instance; times run_trial and the
/// instance's destruction (freeing a large game is real work).
class TimedInstance final : public ScenarioInstance {
 public:
  explicit TimedInstance(std::unique_ptr<ScenarioInstance> inner)
      : inner_(std::move(inner)) {}
  ~TimedInstance() override {
    const Span span(kGameFree);
    inner_.reset();
  }
  TimedInstance(const TimedInstance&) = delete;
  TimedInstance& operator=(const TimedInstance&) = delete;

  std::string describe() const override { return inner_->describe(); }

  TrialOutcome run_trial(const ProtocolSpec& protocol,
                         const DynamicsConfig& dynamics, cid::Rng& rng,
                         TrialStats* stats) const override {
    const Span span(kTrial);
    return inner_->run_trial(protocol, dynamics, rng, stats);
  }

  TrialOutcome run_trial_checkpointed(const ProtocolSpec& protocol,
                                      const DynamicsConfig& dynamics,
                                      cid::Rng& rng,
                                      const TrialCheckpoint& checkpoint,
                                      TrialStats* stats) const override {
    const Span span(kTrial);
    return inner_->run_trial_checkpointed(protocol, dynamics, rng, checkpoint,
                                          stats);
  }

  TrialOutcome resume_trial(const ProtocolSpec& protocol,
                            const DynamicsConfig& dynamics,
                            const std::string& snapshot_path,
                            TrialStats* stats) const override {
    const Span span(kTrial);
    return inner_->resume_trial(protocol, dynamics, snapshot_path, stats);
  }

 private:
  std::unique_ptr<ScenarioInstance> inner_;
};

/// The RPC span of a request frame, from its JSON "type" field.
SpanName rpc_span(std::string_view frame) {
  constexpr std::string_view key = "\"type\":\"";
  const std::size_t at = frame.find(key);
  if (at == std::string_view::npos) return kRpcOther;
  const std::string_view rest = frame.substr(at + key.size());
  const std::string_view type = rest.substr(0, rest.find('"'));
  if (type == "hello") return kRpcHello;
  if (type == "lease") return kRpcLease;
  if (type == "complete") return kRpcComplete;
  if (type == "metrics") return kRpcMetrics;
  if (type == "renew") return kRpcRenew;
  if (type == "requeue") return kRpcRequeue;
  if (type == "bye") return kRpcBye;
  return kRpcOther;
}

}  // namespace

// ---- Wrapped symbols --------------------------------------------------------
//
// Each wrapped call declares the library's definition under its __real_
// alias and defines the __wrap_ entry point the linker substitutes. Member
// functions are wrapped as free functions taking `this` first, which is how
// the Itanium C++ ABI passes it. CMakeLists.txt lists the same mangled names
// in its --wrap flags.

#define CID_REAL(sym) __asm__("__real_" sym)
#define CID_WRAP(sym) __asm__("__wrap_" sym)

#define STD_STRING "NSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define SYM_MAKE_SCENARIO "_ZN3cid5sweep13make_scenarioERKNS0_12ScenarioSpecEl"
#define SYM_RUN_SWEEP \
  "_ZN3cid5sweep9run_sweepERKNS0_9SweepGridERKNS0_12SweepOptionsE"
#define SYM_DERIVE "_ZN3cid5sweep16derive_trial_rngEmjj"
#define SYM_LOAD_MANIFEST \
  "_ZN3cid7persist13load_manifestERK" STD_STRING "RKNS_5sweep9SweepGridE"
#define SYM_CANONICAL                                       \
  "_ZN3cid7persist24write_manifest_canonicalERK" STD_STRING \
  "RKNS0_11MergeReportE"
#define SYM_MW_CREATE                                    \
  "_ZN3cid7persist14ManifestWriter6createERK" STD_STRING \
  "RKNS_5sweep9SweepGridE"
#define SYM_MW_OPEN                                               \
  "_ZN3cid7persist14ManifestWriter15open_for_appendERK" STD_STRING \
  "RKNS_5sweep9SweepGridE"
#define SYM_MW_APPEND \
  "_ZN3cid7persist14ManifestWriter6appendEjjRKNS_5sweep12TrialOutcomeE"
#define SYM_MW_CLOSE "_ZN3cid7persist14ManifestWriter5closeEv"
#define SYM_SERVE_GRID                                      \
  "_ZN3cid5serve10serve_gridERKNS_5sweep9SweepGridERKNS0_" \
  "18CoordinatorOptionsE"
#define SYM_RUN_WORKER \
  "_ZN3cid5serve10run_workerERKNS_5sweep9SweepGridERKNS0_13WorkerOptionsE"
#define SYM_TCP_CONNECT "_ZN3cid5serve11tcp_connectERK" STD_STRING "t"
#define SYM_SEND_FRAME                           \
  "_ZN3cid5serve10send_frameERKNS0_6SocketESt17" \
  "basic_string_viewIcSt11char_traitsIcEE"
#define SYM_READ_SOME "_ZN3cid5serve9read_someERKNS0_6SocketEPcm"

namespace sweep = cid::sweep;
namespace persist = cid::persist;
namespace serve = cid::serve;

// ---- game / sweep -----------------------------------------------------------

std::unique_ptr<ScenarioInstance> real_make_scenario(
    const sweep::ScenarioSpec& spec, std::int64_t n) CID_REAL(SYM_MAKE_SCENARIO);
std::unique_ptr<ScenarioInstance> wrap_make_scenario(
    const sweep::ScenarioSpec& spec, std::int64_t n) CID_WRAP(SYM_MAKE_SCENARIO);
std::unique_ptr<ScenarioInstance> wrap_make_scenario(
    const sweep::ScenarioSpec& spec, std::int64_t n) {
  std::unique_ptr<ScenarioInstance> inner;
  {
    const Span span(kGameBuild, n);
    inner = real_make_scenario(spec, n);
  }
  return std::make_unique<TimedInstance>(std::move(inner));
}

cid::Rng real_derive(std::uint64_t seed, std::uint32_t cell,
                     std::uint32_t trial) CID_REAL(SYM_DERIVE);
cid::Rng wrap_derive(std::uint64_t seed, std::uint32_t cell,
                     std::uint32_t trial) CID_WRAP(SYM_DERIVE);
cid::Rng wrap_derive(std::uint64_t seed, std::uint32_t cell,
                     std::uint32_t trial) {
  const Span span(kStreamDerive, trial);
  return real_derive(seed, cell, trial);
}

sweep::SweepResult real_run_sweep(const sweep::SweepGrid& grid,
                                  const sweep::SweepOptions& options)
    CID_REAL(SYM_RUN_SWEEP);
sweep::SweepResult wrap_run_sweep(const sweep::SweepGrid& grid,
                                  const sweep::SweepOptions& options)
    CID_WRAP(SYM_RUN_SWEEP);
sweep::SweepResult wrap_run_sweep(const sweep::SweepGrid& grid,
                                  const sweep::SweepOptions& options) {
  sweep::SweepResult result;
  {
    const Span span(kSweepRun);
    result = real_run_sweep(grid, options);
  }
  add_counter("sweep.trial_retries", result.trial_retries);
  add_counter("sweep.trial_failures",
              static_cast<std::int64_t>(result.failures.size()));
  // Replay the runner's stream derivation for every trial of the grid, in
  // its order (run_sweep derives all of them before the first trial).
  const Span span(kReplayDerive,
                  static_cast<std::int64_t>(result.trials.size()));
  for (const sweep::TrialRow& row : result.trials) {
    (void)real_derive(grid.master_seed,
                      static_cast<std::uint32_t>(row.key.cell),
                      static_cast<std::uint32_t>(row.trial));
  }
  return result;
}

// ---- persist ----------------------------------------------------------------

persist::ManifestContents real_load_manifest(const std::string& path,
                                             const sweep::SweepGrid& grid)
    CID_REAL(SYM_LOAD_MANIFEST);
persist::ManifestContents wrap_load_manifest(const std::string& path,
                                             const sweep::SweepGrid& grid)
    CID_WRAP(SYM_LOAD_MANIFEST);
persist::ManifestContents wrap_load_manifest(const std::string& path,
                                             const sweep::SweepGrid& grid) {
  const Span span(kManifestLoad);
  return real_load_manifest(path, grid);
}

std::uint64_t real_canonical(const std::string& path,
                             const persist::MergeReport& report)
    CID_REAL(SYM_CANONICAL);
std::uint64_t wrap_canonical(const std::string& path,
                             const persist::MergeReport& report)
    CID_WRAP(SYM_CANONICAL);
std::uint64_t wrap_canonical(const std::string& path,
                             const persist::MergeReport& report) {
  const Span span(kCanonicalWrite);
  return real_canonical(path, report);
}

persist::ManifestWriter real_mw_create(const std::string& path,
                                       const sweep::SweepGrid& grid)
    CID_REAL(SYM_MW_CREATE);
persist::ManifestWriter wrap_mw_create(const std::string& path,
                                       const sweep::SweepGrid& grid)
    CID_WRAP(SYM_MW_CREATE);
persist::ManifestWriter wrap_mw_create(const std::string& path,
                                       const sweep::SweepGrid& grid) {
  const Span span(kManifestOpen);
  return real_mw_create(path, grid);
}

persist::ManifestWriter real_mw_open(const std::string& path,
                                     const sweep::SweepGrid& grid)
    CID_REAL(SYM_MW_OPEN);
persist::ManifestWriter wrap_mw_open(const std::string& path,
                                     const sweep::SweepGrid& grid)
    CID_WRAP(SYM_MW_OPEN);
persist::ManifestWriter wrap_mw_open(const std::string& path,
                                     const sweep::SweepGrid& grid) {
  const Span span(kManifestOpen);
  return real_mw_open(path, grid);
}

void real_mw_append(persist::ManifestWriter* self, std::uint32_t cell,
                    std::uint32_t trial, const TrialOutcome& outcome)
    CID_REAL(SYM_MW_APPEND);
void wrap_mw_append(persist::ManifestWriter* self, std::uint32_t cell,
                    std::uint32_t trial, const TrialOutcome& outcome)
    CID_WRAP(SYM_MW_APPEND);
void wrap_mw_append(persist::ManifestWriter* self, std::uint32_t cell,
                    std::uint32_t trial, const TrialOutcome& outcome) {
  const Span span(kManifestAppend);
  real_mw_append(self, cell, trial, outcome);
}

void real_mw_close(persist::ManifestWriter* self) CID_REAL(SYM_MW_CLOSE);
void wrap_mw_close(persist::ManifestWriter* self) CID_WRAP(SYM_MW_CLOSE);
void wrap_mw_close(persist::ManifestWriter* self) {
  const Span span(kManifestClose);
  real_mw_close(self);
}

// ---- serve ------------------------------------------------------------------

serve::CoordinatorReport real_serve_grid(
    const sweep::SweepGrid& grid, const serve::CoordinatorOptions& options)
    CID_REAL(SYM_SERVE_GRID);
serve::CoordinatorReport wrap_serve_grid(
    const sweep::SweepGrid& grid, const serve::CoordinatorOptions& options)
    CID_WRAP(SYM_SERVE_GRID);
serve::CoordinatorReport wrap_serve_grid(
    const sweep::SweepGrid& grid, const serve::CoordinatorOptions& options) {
  serve::CoordinatorReport report;
  {
    const Span span(kCoordinator);
    report = real_serve_grid(grid, options);
  }
  const auto count = [](const char* name, std::size_t value) {
    add_counter(name, static_cast<std::int64_t>(value));
  };
  count("serve.trials_total", report.trials_total);
  count("serve.trials_completed", report.trials_completed);
  count("serve.trials_resumed", report.trials_resumed);
  count("serve.trials_failed", report.trials_failed);
  count("serve.leases_granted", report.leases_granted);
  count("serve.leases_expired", report.leases_expired);
  count("serve.leases_disconnected", report.leases_disconnected);
  count("serve.requeues", report.requeues);
  count("serve.completions_rejected", report.completions_rejected);
  return report;
}

serve::WorkerReport real_run_worker(const sweep::SweepGrid& grid,
                                    const serve::WorkerOptions& options)
    CID_REAL(SYM_RUN_WORKER);
serve::WorkerReport wrap_run_worker(const sweep::SweepGrid& grid,
                                    const serve::WorkerOptions& options)
    CID_WRAP(SYM_RUN_WORKER);
serve::WorkerReport wrap_run_worker(const sweep::SweepGrid& grid,
                                    const serve::WorkerOptions& options) {
  recorder().worker = true;
  serve::WorkerReport report;
  {
    const Span span(kWorker);
    report = real_run_worker(grid, options);
  }
  add_counter("sweep.trial_retries", report.trial_retries);
  add_counter("serve.worker_trials_completed",
              static_cast<std::int64_t>(report.trials_completed));
  add_counter("serve.worker_leases_lost",
              static_cast<std::int64_t>(report.leases_lost));
  add_counter("serve.worker_waits", static_cast<std::int64_t>(report.waits));
  return report;
}

serve::Socket real_tcp_connect(const std::string& host, std::uint16_t port)
    CID_REAL(SYM_TCP_CONNECT);
serve::Socket wrap_tcp_connect(const std::string& host, std::uint16_t port)
    CID_WRAP(SYM_TCP_CONNECT);
serve::Socket wrap_tcp_connect(const std::string& host, std::uint16_t port) {
  const Span span(kConnect);
  return real_tcp_connect(host, port);
}

void real_send_frame(const serve::Socket& socket, std::string_view frame)
    CID_REAL(SYM_SEND_FRAME);
void wrap_send_frame(const serve::Socket& socket, std::string_view frame)
    CID_WRAP(SYM_SEND_FRAME);
void wrap_send_frame(const serve::Socket& socket, std::string_view frame) {
  // Only a worker's requests open RPC spans; the coordinator's responses
  // belong to its serve_grid span.
  if (!recorder().worker) {
    real_send_frame(socket, frame);
    return;
  }
  if (tls.pending_rpc >= 0) end_span(tls.pending_rpc, /*nested=*/false);
  tls.pending_rpc = begin_span(rpc_span(frame), 0, /*nest=*/false);
  real_send_frame(socket, frame);
}

std::size_t real_read_some(const serve::Socket& socket, char* buffer,
                           std::size_t cap) CID_REAL(SYM_READ_SOME);
std::size_t wrap_read_some(const serve::Socket& socket, char* buffer,
                           std::size_t cap) CID_WRAP(SYM_READ_SOME);
std::size_t wrap_read_some(const serve::Socket& socket, char* buffer,
                           std::size_t cap) {
  const std::size_t got = real_read_some(socket, buffer, cap);
  if (tls.pending_rpc >= 0) {
    end_span(tls.pending_rpc, /*nested=*/false);
    tls.pending_rpc = -1;
  }
  return got;
}
