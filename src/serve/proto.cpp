#include "serve/proto.hpp"

#include <array>
#include <cstdio>
#include <limits>
#include <type_traits>

#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "persist/manifest.hpp"

namespace cid::serve {

std::string encode_frame(std::string_view payload) {
  if (payload.empty()) throw proto_error("encode_frame: empty payload");
  if (payload.size() > kMaxFrameBytes) {
    throw proto_error("encode_frame: payload exceeds " +
                      std::to_string(kMaxFrameBytes) + " bytes");
  }
  persist::BinWriter out;
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.raw(payload.data(), payload.size());
  return out.take();
}

void FrameReader::feed(std::string_view bytes) {
  // Compact once consumed bytes dominate, so a long-lived connection does
  // not grow the buffer without bound.
  if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes);
}

std::optional<std::string> FrameReader::next() {
  if (buffer_.size() - pos_ < 4) return std::nullopt;
  const std::uint32_t len = persist::read_le32(buffer_.data() + pos_);
  if (len == 0) throw proto_error("frame: zero-length payload");
  if (len > kMaxFrameBytes) {
    throw proto_error("frame: length " + std::to_string(len) + " exceeds " +
                      std::to_string(kMaxFrameBytes));
  }
  if (buffer_.size() - pos_ - 4 < len) return std::nullopt;
  std::string payload = buffer_.substr(pos_ + 4, len);
  pos_ += 4 + static_cast<std::size_t>(len);
  return payload;
}

// ---- Messages ---------------------------------------------------------------

namespace {

constexpr std::array<const char*, 16> kTypeNames = {
    nullptr,    "hello",   "welcome", "error",      "lease",    "grant",
    "wait",     "drained", "renew",   "renewed",    "lease_lost",
    "complete", "requeue", "metrics", "bye",        "ack"};

constexpr std::uint64_t kMaxId =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());

/// A writer holding `type`, then `fields` in order: each a u32, u64, i64
/// or str by its C++ type.
template <typename... Fields>
persist::BinWriter payload(MsgType type, const Fields&... fields) {
  persist::BinWriter out;
  out.u8(static_cast<std::uint8_t>(type));
  [[maybe_unused]] const auto put = [&out](const auto& field) {
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, std::uint32_t>) out.u32(field);
    else if constexpr (std::is_same_v<T, std::uint64_t>) out.u64(field);
    else if constexpr (std::is_same_v<T, std::int64_t>) out.i64(field);
    else out.str(std::string_view(field));
  };
  (put(fields), ...);
  return out;
}

/// Runs `read` over a message's fields and requires it to consume them
/// exactly. The one place a reader's persist_error becomes proto_error.
template <typename Read>
auto decode(const Message& message, Read&& read) {
  try {
    persist::BinReader in(message.fields(), type_name(message.type()));
    auto out = read(in);
    in.expect_done();
    return out;
  } catch (const persist::persist_error& e) {
    throw proto_error(e.what());
  }
}

std::uint64_t read_lease_id(persist::BinReader& in) {
  const std::uint64_t id = in.u64();
  if (id > kMaxId) in.fail("lease_id " + std::to_string(id) + " > 2^63-1");
  return id;
}

}  // namespace

const char* type_name(MsgType type) {
  return kTypeNames[static_cast<std::size_t>(type)];
}

Message::Message(std::string payload) : payload_(std::move(payload)) {
  if (payload_.empty()) throw proto_error("message: empty payload");
  const auto tag = static_cast<unsigned char>(payload_[0]);
  if (tag == 0 || tag >= kTypeNames.size()) {
    throw proto_error("message: unknown type " + std::to_string(tag));
  }
  type_ = static_cast<MsgType>(tag);
}

// ---- Builders ---------------------------------------------------------------

std::string msg_hello(std::uint64_t fingerprint, std::string_view worker,
                      std::string_view canary) {
  persist::BinWriter out =
      payload(MsgType::kHello, kServeProtoVersion, fingerprint, worker);
  out.raw(canary.data(), canary.size());
  return out.take();
}

std::string msg_welcome(std::uint64_t worker_id, std::uint64_t trials_total,
                        std::uint64_t trials_done) {
  return payload(MsgType::kWelcome, kServeProtoVersion, worker_id,
                 trials_total, trials_done)
      .take();
}

std::string msg_error(std::string_view message) {
  return payload(MsgType::kError, message).take();
}

std::string msg_lease(std::int64_t budget) {
  return payload(MsgType::kLease, budget).take();
}

std::string msg_grant(std::uint64_t lease_id, std::uint32_t cell,
                      std::uint32_t trial, std::uint32_t count,
                      std::int64_t ttl_ms) {
  return payload(MsgType::kGrant, lease_id, cell, trial, count, ttl_ms)
      .take();
}

std::string msg_wait(std::int64_t backoff_ms) {
  return payload(MsgType::kWait, backoff_ms).take();
}

std::string msg_drained() { return payload(MsgType::kDrained).take(); }

std::string msg_renew(std::uint64_t lease_id) {
  return payload(MsgType::kRenew, lease_id).take();
}

std::string msg_renewed(std::uint64_t lease_id) {
  return payload(MsgType::kRenewed, lease_id).take();
}

std::string msg_lease_lost(std::uint64_t lease_id) {
  return payload(MsgType::kLeaseLost, lease_id).take();
}

std::string msg_complete(std::uint64_t lease_id, std::uint32_t cell,
                         const std::vector<TrialRecord>& records) {
  persist::BinWriter out = payload(MsgType::kComplete, lease_id, cell,
                                   static_cast<std::uint32_t>(records.size()));
  for (const TrialRecord& record : records) {
    persist::write_record(out, cell, record.trial, record.outcome);
  }
  return out.take();
}

std::string msg_requeue(std::uint64_t lease_id, std::string_view reason) {
  return payload(MsgType::kRequeue, lease_id, reason).take();
}

std::string msg_metrics(const std::map<std::string, std::int64_t>& counters) {
  persist::BinWriter out =
      payload(MsgType::kMetrics, static_cast<std::uint32_t>(obs::kMetricsVersion),
              static_cast<std::uint32_t>(counters.size()));
  for (const auto& [name, value] : counters) {
    out.str(name);
    out.i64(value);
  }
  return out.take();
}

std::string msg_bye() { return payload(MsgType::kBye).take(); }

std::string msg_ack() { return payload(MsgType::kAck).take(); }

std::string msg_json_refusal() {
  obs::JsonObject o;
  o.str("type", "error");
  o.str("message", "protocol version mismatch: coordinator " +
                       std::to_string(kServeProtoVersion) +
                       " (binary frames), worker 1 or 2 (JSON frames)");
  return o.take();
}

// ---- Typed decoders ---------------------------------------------------------

Hello decode_hello(const Message& message) {
  return decode(message, [](persist::BinReader& in) {
    Hello hello;
    hello.version = in.u32();
    if (hello.version != kServeProtoVersion) {
      in.bytes(in.remaining());  // another version's fields are its own
      return hello;
    }
    hello.fingerprint = in.u64();
    hello.worker = in.str();
    hello.canary = std::string(in.bytes(persist::kRecordBytes));
    return hello;
  });
}

Welcome decode_welcome(const Message& message) {
  return decode(message, [](persist::BinReader& in) {
    Welcome welcome;
    welcome.version = in.u32();
    welcome.worker_id = in.u64();
    welcome.trials_total = in.u64();
    welcome.trials_done = in.u64();
    return welcome;
  });
}

std::string decode_error(const Message& message) {
  return decode(message, [](persist::BinReader& in) { return in.str(); });
}

std::int64_t decode_budget(const Message& message) {
  return decode(message, [](persist::BinReader& in) {
    const std::int64_t budget = in.i64();
    if (budget < 1 && budget != -1) in.fail("budget must be -1 or >= 1");
    return budget;
  });
}

Grant decode_grant(const Message& message) {
  return decode(message, [](persist::BinReader& in) {
    Grant grant;
    grant.lease_id = read_lease_id(in);
    grant.cell = in.u32();
    grant.trial = in.u32();
    grant.count = in.u32();
    if (grant.count == 0 || grant.count > kMaxLeaseTrials) {
      in.fail("count " + std::to_string(grant.count) + " is outside [1, " +
              std::to_string(kMaxLeaseTrials) + "]");
    }
    grant.ttl_ms = in.i64();
    if (grant.ttl_ms < 0) in.fail("negative ttl_ms");
    return grant;
  });
}

std::int64_t decode_wait(const Message& message) {
  return decode(message, [](persist::BinReader& in) { return in.i64(); });
}

std::uint64_t decode_lease_id(const Message& message) {
  return decode(message, read_lease_id);
}

Batch decode_complete_head(const Message& message) {
  return decode(message, [](persist::BinReader& in) {
    Batch batch;
    batch.lease_id = read_lease_id(in);
    batch.cell = in.u32();
    in.bytes(in.remaining());  // the records wait for the lease's bound
    return batch;
  });
}

Batch decode_complete(const Message& message, std::size_t max_records) {
  return decode(message, [&](persist::BinReader& in) {
    Batch batch;
    batch.lease_id = read_lease_id(in);
    batch.cell = in.u32();
    // Both bounds hold before the records vector is sized.
    const std::uint32_t count = in.u32();
    if (count == 0 || count > max_records) {
      in.fail("count " + std::to_string(count) + " is outside [1, " +
              std::to_string(max_records) + "] (the unfinished trials)");
    }
    if (in.remaining() != count * persist::kRecordBytes) {
      in.fail(std::to_string(in.remaining()) + " record bytes for count " +
              std::to_string(count));
    }
    batch.records.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::optional<persist::Record> record =
          persist::read_record(in.bytes(persist::kRecordBytes), "complete");
      if (!record) in.fail("record " + std::to_string(i) + " fails its CRC");
      if (record->cell != batch.cell) {
        in.fail("record " + std::to_string(i) + " is of cell " +
                std::to_string(record->cell));
      }
      if (i > 0 && record->trial <= batch.records.back().trial) {
        in.fail("trials not in ascending order");
      }
      batch.records.push_back({record->trial, record->outcome});
    }
    return batch;
  });
}

Requeue decode_requeue(const Message& message) {
  return decode(message, [](persist::BinReader& in) {
    Requeue requeue;
    requeue.lease_id = read_lease_id(in);
    requeue.reason = in.str();
    return requeue;
  });
}

MetricsPush decode_metrics(const Message& message) {
  return decode(message, [](persist::BinReader& in) {
    MetricsPush push;
    push.metrics_version = in.u32();
    const std::uint32_t count = in.u32();
    // Each pair takes at least 12 bytes.
    if (count > in.remaining() / 12) {
      in.fail(std::to_string(count) + " counters cannot fit in " +
              std::to_string(in.remaining()) + " bytes");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string name = in.str();
      const std::int64_t value = in.i64();
      if (!push.counters.emplace(std::move(name), value).second) {
        in.fail("duplicate counter");
      }
    }
    return push;
  });
}

// ---- The canary and hex ----------------------------------------------------

const std::string& canary_bits() {
  static const std::string bits = [] {
    sweep::SweepGrid grid;
    grid.scenario.name = "network-routing";
    grid.scenario.params = {{"width", 2.0}, {"depth", 2.0}};
    grid.protocols = sweep::parse_protocol_list("imitation");
    grid.ns = {64};
    grid.trials = 1;
    grid.master_seed = 0x5eed;
    grid.dynamics.max_rounds = 64;
    const auto instance = sweep::make_scenario(grid.scenario, grid.ns[0]);
    sweep::TrialTotals totals;
    persist::BinWriter record;
    sweep::run_trial_step(
        grid, *instance, 0, 0, sweep::RetryPolicy{3, 0.0}, totals, nullptr,
        [&](sweep::TrialDone& done) {
          if (!done.outcome) {
            throw std::runtime_error("canary trial failed: " + done.error);
          }
          persist::write_record(record, 0, 0, *done.outcome);
        });
    return record.take();
  }();
  return bits;
}

std::string hex_bytes(std::string_view bytes) {
  std::string out;
  for (const char c : bytes) {
    char digits[3];
    std::snprintf(digits, sizeof(digits), "%02x",
                  static_cast<unsigned char>(c));
    out += digits;
  }
  return out;
}

std::string fingerprint_hex(std::uint64_t fingerprint) {
  char digits[17];
  std::snprintf(digits, sizeof(digits), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return digits;
}

}  // namespace cid::serve
