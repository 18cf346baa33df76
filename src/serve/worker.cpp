#include "serve/worker.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "persist/manifest.hpp"
#include "serve/net.hpp"
#include "serve/proto.hpp"
#include "sweep/scenario.hpp"

namespace cid::serve {
namespace {

// Connect/reconnect budget: attempts per (re)connection, with linear
// backoff between them.
constexpr int kConnectAttempts = 5;
constexpr double kConnectBackoffMs = 200.0;
// Blocking-read timeout on coordinator responses; a silent coordinator is
// a dead one.
constexpr double kRecvTimeoutSeconds = 30.0;

void sleep_ms(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// Strict request/response channel over one socket. rpc() holds the mutex
/// across the send AND the response read, so the main loop and the
/// renewer thread can never interleave their conversations.
class Channel {
 public:
  explicit Channel(Socket socket) : socket_(std::move(socket)) {
    set_recv_timeout(socket_, kRecvTimeoutSeconds);
  }

  Message rpc(const std::string& payload) {
    const std::lock_guard<std::mutex> lock(mutex_);
    send_frame(socket_, encode_frame(payload));
    return Message(read_frame());
  }

 private:
  std::string read_frame() {
    while (true) {
      if (auto payload = reader_.next()) return *payload;
      char buffer[16 * 1024];
      const std::size_t got = read_some(socket_, buffer, sizeof(buffer));
      if (got == 0) throw net_error("coordinator closed the connection");
      reader_.feed(std::string_view(buffer, got));
    }
  }

  std::mutex mutex_;
  Socket socket_;
  FrameReader reader_;
};

/// Background lease renewer: fires a renew RPC every interval until
/// stopped or the lease is reported lost. Channel/net failures just stop
/// the renewer — the main loop discovers the dead connection on its own
/// next RPC.
class Renewer {
 public:
  Renewer(Channel& channel, std::uint64_t lease_id, double interval_ms)
      : channel_(channel), lease_id_(lease_id) {
    thread_ = std::thread([this, interval_ms] {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_) {
        if (cv_.wait_for(lock,
                         std::chrono::duration<double, std::milli>(
                             interval_ms),
                         [this] { return stop_; })) {
          return;
        }
        lock.unlock();
        bool done = false;
        try {
          const Message response = channel_.rpc(msg_renew(lease_id_));
          if (response.type() != MsgType::kRenewed) {
            lost_.store(true, std::memory_order_relaxed);
            done = true;
          }
        } catch (...) {
          done = true;  // channel dead; the main loop will find out
        }
        lock.lock();
        if (done) return;
      }
    });
  }

  ~Renewer() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  bool lost() const { return lost_.load(std::memory_order_relaxed); }

 private:
  Channel& channel_;
  std::uint64_t lease_id_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<bool> lost_{false};
};

class Worker {
 public:
  Worker(const sweep::SweepGrid& grid, const WorkerOptions& options)
      : grid_(grid), options_(options) {
    num_protocols_ = grid.protocols.size();
    instances_.resize(grid.ns.size());
    fingerprint_ = persist::grid_fingerprint(grid);
  }

  WorkerReport run() {
    connect();
    while (true) {
      if (options_.max_trials >= 0 &&
          static_cast<std::int64_t>(report_.trials_completed) >=
              options_.max_trials) {
        break;
      }
      std::optional<Message> response;
      try {
        const std::int64_t ask_ns = obs::now_ns();
        response.emplace(channel_->rpc(msg_lease(budget())));
        queue_wait_ns_ += obs::now_ns() - ask_ns;
      } catch (const net_error&) {
        reconnect();
        continue;
      }
      const MsgType type = response->type();
      if (type == MsgType::kDrained) {
        report_.drained = true;
        break;
      }
      if (type == MsgType::kWait) {
        ++report_.waits;
        const std::int64_t wait_start = obs::now_ns();
        sleep_ms(static_cast<double>(decode_wait(*response)));
        queue_wait_ns_ += obs::now_ns() - wait_start;
        continue;
      }
      if (type != MsgType::kGrant) {
        throw std::runtime_error(
            std::string("cid_sweep worker: unexpected response to lease: ") +
            type_name(type));
      }
      run_lease(decode_grant(*response));
    }
    farewell();
    return report_;
  }

 private:
  /// Trials this worker may still land: -1 without --max-new-trials.
  std::int64_t budget() const {
    if (options_.max_trials < 0) return -1;
    return options_.max_trials -
           static_cast<std::int64_t>(report_.trials_completed);
  }

  void connect() {
    // The canary runs once per process, before the first connection.
    const std::string& canary = canary_bits();
    net_error last("never connected");
    for (int attempt = 1; attempt <= kConnectAttempts; ++attempt) {
      try {
        auto channel = std::make_unique<Channel>(
            tcp_connect(options_.host, options_.port));
        const Message response =
            channel->rpc(msg_hello(fingerprint_, options_.name, canary));
        if (response.type() == MsgType::kError) {
          // A handshake rejection is fatal, not retryable: the grids,
          // protocol versions or canary bits genuinely differ.
          throw std::runtime_error("cid_sweep worker: coordinator rejected "
                                   "handshake: " +
                                   decode_error(response));
        }
        if (response.type() != MsgType::kWelcome) {
          throw std::runtime_error(std::string("cid_sweep worker: unexpected "
                                               "handshake response: ") +
                                   type_name(response.type()));
        }
        decode_welcome(response);
        channel_ = std::move(channel);
        return;
      } catch (const net_error& e) {
        last = e;
        if (attempt < kConnectAttempts) sleep_ms(kConnectBackoffMs * attempt);
      }
    }
    throw last;
  }

  void reconnect() {
    ++report_.reconnects;
    registry_.add_named("sweep.reconnects", 1);
    channel_.reset();
    connect();
  }

  const sweep::ScenarioInstance& instance(std::size_t n_index) {
    if (instances_[n_index] == nullptr) {
      instances_[n_index] =
          sweep::make_scenario(grid_.scenario, grid_.ns[n_index]);
    }
    return *instances_[n_index];
  }

  /// Runs one lease's trials in trial order, lands the ones that
  /// succeeded with one complete, hands the rest back with one requeue,
  /// and pushes metrics once.
  void run_lease(const Grant& grant) {
    const std::size_t n_index = grant.cell / num_protocols_;
    if (n_index >= grid_.ns.size() ||
        static_cast<std::uint64_t>(grant.trial) + grant.count >
            static_cast<std::uint64_t>(grid_.trials)) {
      throw std::runtime_error(
          "cid_sweep worker: grant for cell " + std::to_string(grant.cell) +
          " trials " + std::to_string(grant.trial) + "+" +
          std::to_string(grant.count) + " outside this grid");
    }

    std::optional<Renewer> renewer;
    if (options_.renew_fraction > 0.0) {
      renewer.emplace(*channel_, grant.lease_id,
                      static_cast<double>(grant.ttl_ms) *
                          options_.renew_fraction);
    }

    // The local runner's trial step: same attempts, fault site and
    // backoff, on the same stream a local run_sweep would hand each
    // (cell, trial) — outcomes are a pure function of it, so whoever
    // lands the trial lands identical bits.
    const sweep::ScenarioInstance& cell_instance = instance(n_index);
    sweep::TrialTotals totals;
    std::vector<TrialRecord> landed;
    landed.reserve(grant.count);
    std::int64_t failed = 0;
    std::string last_error;
    for (std::uint32_t trial = grant.trial; trial < grant.trial + grant.count;
         ++trial) {
      if (renewer && renewer->lost()) break;  // re-granted elsewhere
      sweep::run_trial_step(
          grid_, cell_instance, grant.cell, trial, options_.retry, totals,
          nullptr, [&](sweep::TrialDone& done) {
            if (done.outcome) {
              landed.push_back({trial, *done.outcome});
              return;
            }
            ++failed;
            last_error = std::move(done.error);
          });
    }
    report_.trial_retries += totals.trial_retries;
    sweep::add_trial_totals(registry_, totals,
                            grid_.dynamics.collect_metrics);
    if (failed > 0) registry_.add_named("sweep.trial_failures", failed);
    const bool renew_lost = renewer && renewer->lost();
    renewer.reset();  // stop renewing before the closing RPCs

    try {
      // A lost renewal means the run is already reclaimed: landing it
      // would only be rejected.
      bool live = !renew_lost;
      if (live && !landed.empty()) {
        live = channel_->rpc(msg_complete(grant.lease_id, grant.cell, landed))
                   .type() == MsgType::kAck;
        if (live) {
          report_.trials_completed += landed.size();
          registry_.add_named("sweep.trials_run",
                              static_cast<std::int64_t>(landed.size()));
        }
      }
      if (!live) {
        // Expired or poisoned underneath us (lease_lost). Not an error —
        // the coordinator has already reclaimed the run.
        ++report_.leases_lost;
        registry_.add_named("sweep.leases_lost", 1);
      }
      if (live && failed > 0) {
        // Local budget exhausted: hand those trials back for another
        // worker (the requeue closes the lease).
        report_.trials_requeued += static_cast<std::size_t>(failed);
        channel_->rpc(msg_requeue(grant.lease_id, last_error));
      }
      push_metrics();
    } catch (const net_error&) {
      // Connection died around the closing RPCs; the coordinator's
      // reclaim owns the lease now.
      reconnect();
    }
  }

  void push_metrics() {
    registry_.add_named("sweep.queue_wait_ns",
                        queue_wait_ns_ - queue_wait_pushed_ns_);
    queue_wait_pushed_ns_ = queue_wait_ns_;
    std::map<std::string, std::int64_t> counters;
    for (const obs::CounterValue& c : registry_.snapshot().counters) {
      counters.emplace(c.name, c.value);
    }
    try {
      channel_->rpc(msg_metrics(counters));
    } catch (const net_error&) {
      reconnect();
    }
  }

  void farewell() {
    if (channel_ == nullptr) return;
    try {
      push_metrics();
      channel_->rpc(msg_bye());
    } catch (const net_error&) {
      // Already drained; a lost goodbye costs nothing.
    }
    channel_.reset();
  }

  const sweep::SweepGrid& grid_;
  const WorkerOptions& options_;
  std::size_t num_protocols_ = 0;
  std::uint64_t fingerprint_ = 0;
  std::vector<std::unique_ptr<sweep::ScenarioInstance>> instances_;
  std::unique_ptr<Channel> channel_;
  obs::MetricsRegistry registry_;
  std::int64_t queue_wait_ns_ = 0;
  std::int64_t queue_wait_pushed_ns_ = 0;
  WorkerReport report_;
};

}  // namespace

WorkerReport run_worker(const sweep::SweepGrid& grid,
                        const WorkerOptions& options) {
  Worker worker(grid, options);
  return worker.run();
}

}  // namespace cid::serve
