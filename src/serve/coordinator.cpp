#include "serve/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "persist/manifest.hpp"
#include "serve/net.hpp"
#include "serve/proto.hpp"
#include "util/fault.hpp"

namespace cid::serve {
namespace {

void write_port_file(const std::string& path, std::uint16_t port) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  out << port << "\n";
  if (!out) {
    throw net_error("cannot write port file: " + path);
  }
}

/// A run of `count` consecutive trial indices of one cell, starting at
/// `first`. Its unfinished trials are the ones still kLeased; the lease
/// closes when `open` reaches 0.
struct Lease {
  std::size_t first = 0;
  std::size_t count = 0;
  std::size_t open = 0;
  std::uint64_t conn_id = 0;
  std::int64_t deadline_ns = 0;
  std::int64_t granted_ns = 0;
  /// serve.lease_expire fired at grant time: this lease is already lost —
  /// its completion is rejected and the run reclaimed on the next tick,
  /// whatever the wall clock does.
  bool poisoned = false;
};

struct Connection {
  Socket socket;
  FrameReader reader{};
  std::int64_t worker_id = -1;  // -1 until a valid hello
  std::string worker_name{};
  bool closing = false;  // error/bye sent; drop after flush
};

struct HttpConnection {
  Socket socket;
  std::string request{};
  bool done = false;  // served or dead
};

enum class TrialState : std::uint8_t { kPending, kLeased, kDone, kFailed };

class Coordinator {
 public:
  Coordinator(const sweep::SweepGrid& grid, const CoordinatorOptions& options)
      : grid_(grid), options_(options) {
    num_cells_ = grid.ns.size() * grid.protocols.size();
    trials_per_cell_ = static_cast<std::size_t>(grid.trials);
    const std::size_t total = num_cells_ * trials_per_cell_;
    state_.assign(total, TrialState::kPending);
    requeue_counts_.assign(total, 0);
    report_.trials_total = total;
    fingerprint_ = persist::grid_fingerprint(grid);
    canary_ = canary_bits();

    lease_latency_hist_ = registry_.histogram(
        "serve.lease_latency_ms",
        {1.0, 5.0, 25.0, 100.0, 500.0, 2000.0, 10000.0, 60000.0});

    if (options.manifest_path.empty()) {
      throw std::runtime_error("cid_serve requires a manifest path");
    }
    // Resume-or-create, exactly like the local runner: an existing
    // manifest's trials are merged in and never re-granted.
    persist::OpenManifest opened =
        persist::open_manifest(options.manifest_path, grid);
    completed_ = std::move(opened.completed);
    for (const auto& [key, outcome] : completed_) {
      state_[static_cast<std::size_t>(key.first) * trials_per_cell_ +
             key.second] = TrialState::kDone;
    }
    report_.trials_resumed = completed_.size();
    manifest_.emplace(std::move(opened.writer));
    // One flush per complete, issued by handle_complete before its ack.
    manifest_->set_flush_every(0);
    report_.trials_completed = completed_.size();

    for (std::size_t i = 0; i < total; ++i) {
      if (state_[i] == TrialState::kPending) queue_.push_back(i);
    }
  }

  CoordinatorReport run() {
    listener_.emplace(
        TcpListener::listen_on(options_.host, options_.port));
    write_port_file(options_.port_file, listener_->port());
    std::uint16_t metrics_port = 0;
    if (options_.metrics_http) {
      metrics_listener_.emplace(
          TcpListener::listen_on(options_.host, options_.metrics_port));
      metrics_port = metrics_listener_->port();
      write_port_file(options_.metrics_port_file, metrics_port);
    }
    if (options_.on_listening) {
      options_.on_listening(listener_->port(), metrics_port);
    }
    if (options_.verbose) {
      std::fprintf(stderr, "cid_serve: listening on %s:%u (%zu of %zu "
                   "trials pending)\n",
                   options_.host.c_str(), listener_->port(), queue_.size(),
                   report_.trials_total);
    }

    const std::int64_t start_ns = obs::now_ns();
    const std::int64_t deadline_ns =
        options_.max_seconds > 0.0
            ? start_ns + static_cast<std::int64_t>(options_.max_seconds * 1e9)
            : 0;

    while (true) {
      if (work_finished() && connections_.empty()) break;
      if (deadline_ns != 0 && obs::now_ns() >= deadline_ns) {
        report_.timed_out = true;
        break;
      }
      poll_once();
      reclaim_expired();
    }

    finish();
    return report_;
  }

 private:
  bool work_finished() const {
    return report_.trials_completed + report_.trials_failed ==
           report_.trials_total;
  }

  // ---- Event loop -----------------------------------------------------------

  void poll_once() {
    std::vector<pollfd> fds;
    // Index bookkeeping: [0] lease listener, [1] optional metrics
    // listener, then lease connections, then HTTP connections.
    fds.push_back({listener_->fd(), POLLIN, 0});
    const std::size_t metrics_slot = fds.size();
    if (metrics_listener_) {
      fds.push_back({metrics_listener_->fd(), POLLIN, 0});
    }
    const std::size_t conn_base = fds.size();
    std::vector<std::uint64_t> conn_ids;
    for (const auto& [id, conn] : connections_) {
      conn_ids.push_back(id);
      fds.push_back({conn.socket.fd(), POLLIN, 0});
    }
    const std::size_t http_base = fds.size();
    for (const HttpConnection& http : http_connections_) {
      fds.push_back({http.socket.fd(), POLLIN, 0});
    }

    const int timeout_ms =
        std::max(1, static_cast<int>(options_.tick_seconds * 1e3));
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready <= 0) return;

    if ((fds[0].revents & POLLIN) != 0) accept_connections();
    if (metrics_listener_ && (fds[metrics_slot].revents & POLLIN) != 0) {
      accept_metrics_connections();
    }
    for (std::size_t i = 0; i < conn_ids.size(); ++i) {
      if ((fds[conn_base + i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        service_connection(conn_ids[i]);
      }
    }
    // HTTP slots are last; a connection accepted above has none yet.
    for (std::size_t i = 0; http_base + i < fds.size(); ++i) {
      if ((fds[http_base + i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        http_connections_[i].done = service_http(http_connections_[i]);
      }
    }
    std::erase_if(http_connections_,
                  [](const HttpConnection& http) { return http.done; });
  }

  void accept_connections() {
    Socket conn = listener_->accept();
    if (!conn.valid()) {
      registry_.add_named("serve.accept_drops", 1);
      return;
    }
    connections_.emplace(next_conn_id_++,
                         Connection{.socket = std::move(conn)});
  }

  void accept_metrics_connections() {
    Socket conn = metrics_listener_->accept();
    if (conn.valid()) {
      http_connections_.push_back(HttpConnection{.socket = std::move(conn)});
    }
  }

  void service_connection(std::uint64_t conn_id) {
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    Connection& conn = it->second;
    char buffer[64 * 1024];
    try {
      const std::size_t got =
          read_some(conn.socket, buffer, sizeof(buffer));
      if (got == 0) {
        drop_connection(conn_id, "eof");
        return;
      }
      conn.reader.feed(std::string_view(buffer, got));
      // A handler may mark the connection for teardown (error / bye);
      // nothing after that is read.
      while (!conn.closing) {
        std::optional<std::string> payload = conn.reader.next();
        if (!payload) break;
        if ((*payload)[0] == '{') {
          // A pre-v3 (JSON) worker: refuse it in the one format it reads.
          respond(conn, msg_json_refusal());
          conn.closing = true;
        } else {
          handle_message(conn_id, Message(std::move(*payload)));
        }
      }
      if (conn.closing) drop_connection(conn_id, "closed");
    } catch (const proto_error& e) {
      if (options_.verbose) {
        std::fprintf(stderr, "cid_serve: conn %llu protocol error: %s\n",
                     static_cast<unsigned long long>(conn_id), e.what());
      }
      registry_.add_named("serve.protocol_errors", 1);
      drop_connection(conn_id, "protocol error");
    } catch (const net_error& e) {
      if (options_.verbose) {
        std::fprintf(stderr, "cid_serve: conn %llu net error: %s\n",
                     static_cast<unsigned long long>(conn_id), e.what());
      }
      drop_connection(conn_id, "net error");
    }
  }

  /// Tears one connection down and reclaims every lease it held — the
  /// dropped-worker path the byte-identity guarantee leans on.
  void drop_connection(std::uint64_t conn_id, const char* why) {
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    std::vector<std::uint64_t> held;
    for (const auto& [lease_id, lease] : leases_) {
      if (lease.conn_id == conn_id) held.push_back(lease_id);
    }
    for (const std::uint64_t lease_id : held) {
      reclaim_lease(lease_id, /*expired=*/false);
    }
    if (options_.verbose && !held.empty()) {
      std::fprintf(stderr,
                   "cid_serve: conn %llu dropped (%s), reclaimed %zu "
                   "lease(s)\n",
                   static_cast<unsigned long long>(conn_id), why,
                   held.size());
    }
    connections_.erase(it);
  }

  // ---- Lease bookkeeping ----------------------------------------------------

  void reclaim_lease(std::uint64_t lease_id, bool expired) {
    const auto it = leases_.find(lease_id);
    if (it == leases_.end()) return;
    const Lease lease = it->second;
    leases_.erase(it);
    if (expired) {
      ++report_.leases_expired;
      registry_.add_named("serve.leases_expired", 1);
    } else {
      ++report_.leases_disconnected;
      registry_.add_named("serve.leases_disconnected", 1);
    }
    requeue_unfinished(lease);
  }

  /// Puts every trial of `lease` that has not landed back in the queue,
  /// in trial order, each counting one requeue. Returns how many.
  std::size_t requeue_unfinished(const Lease& lease) {
    std::size_t requeued = 0;
    for (std::size_t i = lease.first; i < lease.first + lease.count; ++i) {
      if (state_[i] != TrialState::kLeased) continue;
      requeue_trial(i);
      ++requeued;
    }
    return requeued;
  }

  void requeue_trial(std::size_t trial_index) {
    if (++requeue_counts_[trial_index] > options_.max_requeues) {
      state_[trial_index] = TrialState::kFailed;
      ++report_.trials_failed;
      registry_.add_named("serve.trials_failed", 1);
      std::fprintf(stderr,
                   "cid_serve: trial (cell %zu, trial %zu) exceeded %d "
                   "requeues — permanently failed\n",
                   trial_index / trials_per_cell_,
                   trial_index % trials_per_cell_, options_.max_requeues);
      return;
    }
    state_[trial_index] = TrialState::kPending;
    queue_.push_back(trial_index);
  }

  void reclaim_expired() {
    const std::int64_t now = obs::now_ns();
    std::vector<std::uint64_t> expired;
    for (const auto& [lease_id, lease] : leases_) {
      if (lease.poisoned || now >= lease.deadline_ns) {
        expired.push_back(lease_id);
      }
    }
    for (const std::uint64_t lease_id : expired) {
      reclaim_lease(lease_id, /*expired=*/true);
    }
  }

  // ---- Message handlers -----------------------------------------------------

  void handle_message(std::uint64_t conn_id, const Message& message) {
    Connection& conn = connections_.at(conn_id);
    const MsgType type = message.type();
    if (conn.worker_id < 0 && type != MsgType::kHello) {
      refuse(conn, "handshake first: expected hello");
      return;
    }
    switch (type) {
      case MsgType::kHello: return handle_hello(conn, message);
      case MsgType::kLease: return handle_lease(conn_id, conn, message);
      case MsgType::kRenew: return handle_renew(conn, message);
      case MsgType::kComplete: return handle_complete(conn, message);
      case MsgType::kRequeue: return handle_requeue(conn, message);
      case MsgType::kMetrics: return handle_metrics(conn, message);
      case MsgType::kBye:
        respond(conn, msg_ack());
        conn.closing = true;
        return;
      default:
        refuse(conn, std::string("unexpected message type: ") +
                         type_name(type));
    }
  }

  /// Sends one error and closes after it.
  void refuse(Connection& conn, const std::string& why) {
    respond(conn, msg_error(why));
    conn.closing = true;
  }

  void handle_hello(Connection& conn, const Message& message) {
    const Hello hello = decode_hello(message);
    if (hello.version != kServeProtoVersion) {
      return refuse(conn, "protocol version mismatch: coordinator " +
                              std::to_string(kServeProtoVersion) +
                              ", worker " + std::to_string(hello.version));
    }
    if (hello.fingerprint != fingerprint_) {
      return refuse(conn, "grid fingerprint mismatch: serving " +
                              fingerprint_hex(fingerprint_) + ", worker " +
                              fingerprint_hex(hello.fingerprint));
    }
    if (hello.canary != canary_) {
      return refuse(conn, "canary mismatch: coordinator " +
                              hex_bytes(canary_) + ", worker " +
                              hex_bytes(hello.canary));
    }
    conn.worker_id = static_cast<std::int64_t>(++report_.workers_seen);
    conn.worker_name = hello.worker;
    registry_.add_named("serve.workers_seen", 1);
    respond(conn, msg_welcome(static_cast<std::uint64_t>(conn.worker_id),
                              report_.trials_total,
                              report_.trials_completed));
  }

  /// The run length of the next grant: a quarter of each connected
  /// worker's share of the pending trials, so late joiners and the tail
  /// still find work, within [1, kMaxLeaseTrials] and the worker's budget.
  std::size_t batch_size(std::int64_t budget) const {
    std::size_t workers = 0;
    for (const auto& [id, conn] : connections_) {
      if (conn.worker_id >= 0 && !conn.closing) ++workers;
    }
    const std::size_t share = 4 * std::max<std::size_t>(1, workers);
    std::size_t size = (queue_.size() + share - 1) / share;
    size = std::clamp<std::size_t>(size, 1, kMaxLeaseTrials);
    if (budget > 0) size = std::min(size, static_cast<std::size_t>(budget));
    return size;
  }

  void handle_lease(std::uint64_t conn_id, Connection& conn,
                    const Message& message) {
    const std::int64_t budget = decode_budget(message);
    if (queue_.empty()) {
      respond(conn, work_finished() ? msg_drained()
                                    : msg_wait(options_.wait_backoff_ms));
      return;
    }
    // The run: the queue's front trial plus the consecutive pending
    // trials of the same cell that follow it in the queue.
    const std::size_t limit = batch_size(budget);
    Lease lease;
    lease.first = queue_.front();
    const std::size_t cell = lease.first / trials_per_cell_;
    while (lease.count < limit && !queue_.empty() &&
           queue_.front() == lease.first + lease.count &&
           queue_.front() / trials_per_cell_ == cell) {
      state_[queue_.front()] = TrialState::kLeased;
      queue_.pop_front();
      ++lease.count;
    }
    lease.open = lease.count;
    lease.conn_id = conn_id;
    lease.granted_ns = obs::now_ns();
    lease.deadline_ns =
        lease.granted_ns +
        static_cast<std::int64_t>(options_.lease_ttl_seconds * 1e9);
    // Deterministic lease loss: consulted once per grant, so the schedule
    // indexes grants (runs), not trials or wall-clock races. A poisoned
    // grant can never produce a completion.
    const util::FaultAction fault = util::fault_point("serve.lease_expire");
    if (fault.kind != util::FaultKind::kNone) {
      lease.poisoned = true;
      registry_.add_named("serve.leases_poisoned", 1);
    }
    const std::uint64_t lease_id = next_lease_id_++;
    leases_.emplace(lease_id, lease);
    ++report_.leases_granted;
    registry_.add_named("serve.leases_granted", 1);
    respond(conn, msg_grant(lease_id, static_cast<std::uint32_t>(cell),
                            static_cast<std::uint32_t>(lease.first %
                                                       trials_per_cell_),
                            static_cast<std::uint32_t>(lease.count),
                            static_cast<std::int64_t>(
                                options_.lease_ttl_seconds * 1e3)));
  }

  void handle_renew(Connection& conn, const Message& message) {
    const std::uint64_t lease_id = decode_lease_id(message);
    const auto it = leases_.find(lease_id);
    if (it == leases_.end() || it->second.poisoned ||
        obs::now_ns() >= it->second.deadline_ns) {
      respond(conn, msg_lease_lost(lease_id));
      return;
    }
    it->second.deadline_ns =
        obs::now_ns() +
        static_cast<std::int64_t>(options_.lease_ttl_seconds * 1e9);
    registry_.add_named("serve.leases_renewed", 1);
    respond(conn, msg_renewed(lease_id));
  }

  void handle_complete(Connection& conn, const Message& message) {
    const Batch head = decode_complete_head(message);
    const std::uint64_t lease_id = head.lease_id;
    const auto it = leases_.find(lease_id);
    if (it == leases_.end() || it->second.poisoned ||
        it->second.first / trials_per_cell_ != head.cell) {
      ++report_.completions_rejected;
      registry_.add_named("serve.completions_rejected", 1);
      respond(conn, msg_lease_lost(lease_id));
      return;
    }
    Lease& lease = it->second;
    // decode_complete bounds the batch by the lease's unfinished trials
    // before it allocates; every key must then name one of them.
    const Batch batch = decode_complete(message, lease.open);
    const std::size_t cell_base = lease.first - lease.first % trials_per_cell_;
    for (const TrialRecord& record : batch.records) {
      const std::size_t index = cell_base + record.trial;
      if (record.trial >= trials_per_cell_ || index < lease.first ||
          index >= lease.first + lease.count ||
          state_[index] != TrialState::kLeased) {
        throw proto_error("complete: trial " + std::to_string(record.trial) +
                          " is not an unfinished trial of lease " +
                          std::to_string(lease_id));
      }
    }

    for (const TrialRecord& record : batch.records) {
      state_[cell_base + record.trial] = TrialState::kDone;
      completed_[{batch.cell, record.trial}] = record.outcome;
      manifest_->append(batch.cell, record.trial, record.outcome);
    }
    // The batch is on its way to disk before the worker hears it landed.
    manifest_->flush();
    report_.trials_completed += batch.records.size();
    registry_.add_named("serve.trials_completed",
                        static_cast<std::int64_t>(batch.records.size()));
    registry_.observe(lease_latency_hist_,
                      static_cast<double>(obs::now_ns() - lease.granted_ns) /
                          1e6);
    lease.open -= batch.records.size();
    if (lease.open == 0) leases_.erase(it);
    respond(conn, msg_ack());
    if (options_.verbose) {
      std::fprintf(stderr, "cid_serve: %zu/%zu done (cell %u, %zu trial(s) "
                   "by worker %lld)\n",
                   report_.trials_completed, report_.trials_total,
                   batch.cell, batch.records.size(),
                   static_cast<long long>(conn.worker_id));
    }
  }

  void handle_requeue(Connection& conn, const Message& message) {
    const auto it = leases_.find(decode_requeue(message).lease_id);
    if (it != leases_.end()) {
      const Lease lease = it->second;
      leases_.erase(it);
      const std::size_t requeued = requeue_unfinished(lease);
      report_.requeues += requeued;
      registry_.add_named("serve.requeues",
                          static_cast<std::int64_t>(requeued));
    }
    respond(conn, msg_ack());
  }

  void handle_metrics(Connection& conn, const Message& message) {
    MetricsPush push = decode_metrics(message);
    if (push.metrics_version ==
        static_cast<std::uint32_t>(obs::kMetricsVersion)) {
      // Snapshots are cumulative; keep only the latest per worker and sum
      // across workers at exposition time.
      worker_counters_[conn.worker_id] = std::move(push.counters);
      registry_.add_named("serve.metrics_pushes", 1);
    }
    respond(conn, msg_ack());
  }

  void respond(Connection& conn, const std::string& payload) {
    send_frame(conn.socket, encode_frame(payload));
  }

  // ---- Fleet metrics --------------------------------------------------------

  obs::MetricsSnapshot fleet_snapshot() {
    obs::MetricsSnapshot snapshot = registry_.snapshot();
    std::map<std::string, std::int64_t> merged;
    for (const obs::CounterValue& c : snapshot.counters) {
      merged[c.name] += c.value;
    }
    // Coordinator-side persist I/O (the live manifest) from the global
    // registry, then every worker's latest pushed snapshot.
    const obs::PersistIoTotals io = obs::persist_io_totals();
    merged["persist.bytes_written"] += io.bytes_written;
    merged["persist.writes"] += io.writes;
    merged["persist.fsyncs"] += io.fsyncs;
    merged["persist.fflushes"] += io.fflushes;
    merged["persist.write_failures"] += io.write_failures;
    merged["persist.write_retries"] += io.write_retries;
    for (const auto& [worker_id, counters] : worker_counters_) {
      for (const auto& [name, value] : counters) merged[name] += value;
    }
    merged["serve.workers_connected"] =
        static_cast<std::int64_t>(connections_.size());
    merged["serve.trials_pending"] = static_cast<std::int64_t>(queue_.size());
    merged["serve.leases_outstanding"] =
        static_cast<std::int64_t>(leases_.size());
    snapshot.counters.clear();
    snapshot.counters.reserve(merged.size());
    for (const auto& [name, value] : merged) {
      snapshot.counters.push_back({name, value});
    }
    return snapshot;
  }

  /// One-shot HTTP: buffer until the blank line, answer any request with
  /// the Prometheus exposition, close. Returns true when the connection
  /// is finished (served or dead).
  bool service_http(HttpConnection& http) {
    char buffer[8 * 1024];
    std::size_t got = 0;
    try {
      got = read_some(http.socket, buffer, sizeof(buffer));
    } catch (const net_error&) {
      return true;
    }
    if (got == 0) return true;
    http.request.append(buffer, got);
    if (http.request.size() > 64 * 1024) return true;  // not HTTP; drop
    if (http.request.find("\r\n\r\n") == std::string::npos &&
        http.request.find("\n\n") == std::string::npos) {
      return false;  // headers still incomplete
    }
    const std::string body = obs::prometheus_text(fleet_snapshot());
    std::string response =
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " + std::to_string(body.size()) + "\r\n"
        "Connection: close\r\n\r\n" + body;
    try {
      send_frame(http.socket, response);  // send_frame = write fully
    } catch (const net_error&) {
    }
    registry_.add_named("serve.metrics_scrapes", 1);
    return true;
  }

  // ---- Shutdown -------------------------------------------------------------

  void finish() {
    manifest_->close();
    report_.complete = work_finished() && report_.trials_failed == 0;

    if (report_.complete) {
      // Canonical rewrite: (cell, trial)-sorted records, byte-identical
      // to an unsharded --threads 1 run's manifest whatever order the
      // fleet completed trials in.
      persist::MergeReport merged;
      merged.fingerprint = fingerprint_;
      merged.cells = static_cast<std::uint32_t>(num_cells_);
      merged.trials_per_cell = static_cast<std::uint32_t>(trials_per_cell_);
      merged.completed = std::move(completed_);  // the last use
      const std::string final_path = options_.final_manifest_path.empty()
                                         ? options_.manifest_path
                                         : options_.final_manifest_path;
      persist::write_manifest_canonical(final_path, merged);
      if (options_.verbose) {
        std::fprintf(stderr, "cid_serve: wrote canonical manifest %s\n",
                     final_path.c_str());
      }
    }
    if (!options_.metrics_prom_path.empty()) {
      obs::write_prometheus(options_.metrics_prom_path, fleet_snapshot());
    }
  }

  const sweep::SweepGrid& grid_;
  const CoordinatorOptions& options_;
  std::size_t num_cells_ = 0;
  std::size_t trials_per_cell_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::string canary_;

  std::vector<TrialState> state_;
  std::vector<int> requeue_counts_;
  std::deque<std::size_t> queue_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, sweep::TrialOutcome>
      completed_;
  std::optional<persist::ManifestWriter> manifest_;

  std::optional<TcpListener> listener_;
  std::optional<TcpListener> metrics_listener_;
  std::map<std::uint64_t, Connection> connections_;
  std::vector<HttpConnection> http_connections_;
  std::uint64_t next_conn_id_ = 1;

  std::map<std::uint64_t, Lease> leases_;
  std::uint64_t next_lease_id_ = 1;

  obs::MetricsRegistry registry_;
  obs::MetricsRegistry::HistogramId lease_latency_hist_ = 0;
  std::map<std::int64_t, std::map<std::string, std::int64_t>>
      worker_counters_;

  CoordinatorReport report_;
};

}  // namespace

CoordinatorReport serve_grid(const sweep::SweepGrid& grid,
                             const CoordinatorOptions& options) {
  Coordinator coordinator(grid, options);
  return coordinator.run();
}

}  // namespace cid::serve
