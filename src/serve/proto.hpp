// Trial-lease wire protocol for distributed sweeps (cid_serve <-> workers).
//
// Transport: a TCP byte stream of frames, `len:u32 payload:bytes[len]`
// with 0 < len <= kMaxFrameBytes. The codec here is transport-free (tests
// run it on plain strings); src/serve/net.* owns the sockets.
//
// A payload is binio fields (persist/binio.hpp: little-endian integers,
// str = len:u32 bytes): a type tag, then that type's fields in a fixed
// order, and nothing after them. The conversation is strict RPC: the
// worker sends one request, the coordinator exactly one response, and it
// never pushes unsolicited frames.
//
//   hello    1  version:u32 fingerprint:u64 worker:str canary:record
//            -> welcome 2  version:u32 worker_id:u64 trials_total:u64
//                          trials_done:u64
//            or error   3  message:str (version, grid or canary mismatch;
//                          the coordinator closes after sending it)
//   lease    4  budget:i64        (>= 1 caps the run; -1 = none)
//            -> grant   5  lease_id:u64 cell:u32 trial:u32 count:u32
//                          ttl_ms:i64
//            or wait    6  backoff_ms:i64      (all work leased)
//            or drained 7                      (nothing left, ever)
//   renew    8  lease_id:u64
//            -> renewed 9 lease_id:u64 or lease_lost 10 lease_id:u64
//   complete 11 lease_id:u64 cell:u32 count:u32 record[count]
//            -> ack 15 or lease_lost
//   requeue  12 lease_id:u64 reason:str -> ack
//   metrics  13 metrics_version:u32 count:u32 (name:str value:i64)[count]
//            -> ack
//   bye      14 -> ack
//
// A record is the 45-byte CIDMANI trial record, CRC included
// (persist::write_record, the bytes ManifestWriter::append writes), so
// outcome doubles cross as their IEEE-754 bits and a fleet manifest is
// byte-identical to a local --threads 1 one (NaN and -0.0 included).
//
// A grant is a RUN: trials [trial, trial + count) of one cell, 1 <= count
// <= kMaxLeaseTrials. One complete lands any subset of it, in ascending
// trial order; the coordinator appends them to its manifest, flushes
// once, and only then acks. requeue hands back the trials not landed.
//
// The canary is the record of one fixed tiny trial (canary_bits()): a
// worker whose build or platform lands other bits for it would land other
// bits for the grid too, so it is refused before it can take a lease.
//
// Versions: hello's first field is the version, so a hello of any other
// version is refused by name before another field is read. A pre-v3 peer
// speaks JSON (its payloads start with '{', no type tag); it gets one JSON
// error frame naming the versions (msg_json_refusal), then a close.
//
// Failure policy: a payload that cannot be decoded (unknown type, short
// or trailing bytes, a field out of range) throws proto_error. Peers treat
// that as a poisoned connection — a length-prefixed stream cannot be
// resynchronized — and close it; the coordinator reclaims its leases.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sweep/runner.hpp"

namespace cid::serve {

inline constexpr std::uint32_t kServeProtoVersion = 3;
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;
/// The longest run one grant may carry.
inline constexpr std::uint32_t kMaxLeaseTrials = 256;

/// A malformed frame or message (bad length prefix, unknown type, short,
/// trailing or out-of-range fields): the connection cannot recover.
class proto_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Wraps one payload in a frame. Throws proto_error on an empty or
/// oversized payload: the writer side of the reader's limits.
std::string encode_frame(std::string_view payload);

/// Incremental frame decoder: feed() stream bytes in any chunking, next()
/// yields complete payloads in order. A zero or oversized length prefix
/// throws proto_error at once, before its payload is waited for. EOF with
/// buffered() > 0 means the peer died mid-frame.
class FrameReader {
 public:
  void feed(std::string_view bytes);
  std::optional<std::string> next();
  std::size_t buffered() const noexcept { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
};

// ---- Messages ---------------------------------------------------------------

enum class MsgType : std::uint8_t {
  kHello = 1, kWelcome, kError, kLease, kGrant, kWait, kDrained, kRenew,
  kRenewed, kLeaseLost, kComplete, kRequeue, kMetrics, kBye, kAck,
};

/// "hello", "grant", ...: the name of a type, for diagnostics.
const char* type_name(MsgType type);

/// One received payload. The constructor checks its type tag (proto_error
/// when empty or unknown); the decoders below read its fields.
class Message {
 public:
  explicit Message(std::string payload);

  MsgType type() const noexcept { return type_; }
  /// The payload after its type tag.
  std::string_view fields() const noexcept {
    return std::string_view(payload_).substr(1);
  }

 private:
  std::string payload_;
  MsgType type_;
};

// ---- Message builders (each returns the payload) ----------------------------

/// One landed trial of a run.
struct TrialRecord {
  std::uint32_t trial = 0;
  sweep::TrialOutcome outcome;
};

/// `canary` is a record (canary_bits()).
std::string msg_hello(std::uint64_t fingerprint, std::string_view worker,
                      std::string_view canary);
std::string msg_welcome(std::uint64_t worker_id, std::uint64_t trials_total,
                        std::uint64_t trials_done);
std::string msg_error(std::string_view message);
/// `budget` >= 1 caps the run's length; -1 leaves it to the coordinator.
std::string msg_lease(std::int64_t budget);
std::string msg_grant(std::uint64_t lease_id, std::uint32_t cell,
                      std::uint32_t trial, std::uint32_t count,
                      std::int64_t ttl_ms);
std::string msg_wait(std::int64_t backoff_ms);
std::string msg_drained();
std::string msg_renew(std::uint64_t lease_id);
std::string msg_renewed(std::uint64_t lease_id);
std::string msg_lease_lost(std::uint64_t lease_id);
std::string msg_complete(std::uint64_t lease_id, std::uint32_t cell,
                         const std::vector<TrialRecord>& records);
std::string msg_requeue(std::uint64_t lease_id, std::string_view reason);
std::string msg_metrics(const std::map<std::string, std::int64_t>& counters);
std::string msg_bye();
std::string msg_ack();

/// The one JSON frame of v3: the error a pre-v3 hello gets, readable by
/// the JSON workers of v1 and v2.
std::string msg_json_refusal();

// ---- Typed decoders (each throws proto_error on any bad field) -------------

/// A hello. One of another version decodes to its version alone.
struct Hello {
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;
  std::string worker;
  std::string canary;  // a record's bytes
};
Hello decode_hello(const Message& message);

struct Welcome {
  std::uint32_t version = 0;
  std::uint64_t worker_id = 0;
  std::uint64_t trials_total = 0;
  std::uint64_t trials_done = 0;
};
Welcome decode_welcome(const Message& message);

/// The message of an error.
std::string decode_error(const Message& message);

/// The budget of a lease request: -1 or a count >= 1.
std::int64_t decode_budget(const Message& message);

/// A grant's run.
struct Grant {
  std::uint64_t lease_id = 0;
  std::uint32_t cell = 0;
  std::uint32_t trial = 0;
  std::uint32_t count = 0;  // 1..kMaxLeaseTrials
  std::int64_t ttl_ms = 0;
};
Grant decode_grant(const Message& message);

/// The backoff of a wait.
std::int64_t decode_wait(const Message& message);

/// The lease of a renew, renewed or lease_lost.
std::uint64_t decode_lease_id(const Message& message);

/// A complete's records. Its count must be in [1, max_records] (the
/// lease's unfinished trials) and fit the bytes before anything is sized
/// by it; every record must pass its CRC and be of the batch's cell, in
/// ascending trial order.
struct Batch {
  std::uint64_t lease_id = 0;
  std::uint32_t cell = 0;
  std::vector<TrialRecord> records;
};
Batch decode_complete(const Message& message, std::size_t max_records);

/// A complete's lease_id and cell alone: what finds its max_records.
Batch decode_complete_head(const Message& message);

struct Requeue {
  std::uint64_t lease_id = 0;
  std::string reason;
};
Requeue decode_requeue(const Message& message);

struct MetricsPush {
  std::uint32_t metrics_version = 0;
  std::map<std::string, std::int64_t> counters;
};
MetricsPush decode_metrics(const Message& message);

/// The record of the canary trial, (cell 0, trial 0) of a fixed tiny grid
/// (network-routing width 2 depth 2, n = 64, imitation, 64 rounds, seed
/// 0x5eed) run through sweep::run_trial_step. Computed once per process,
/// so it consults the sweep.trial fault site once per process; throws
/// std::runtime_error if the trial fails.
const std::string& canary_bits();

/// Lowercase hex of `bytes`, for the canary in error messages.
std::string hex_bytes(std::string_view bytes);

/// A fingerprint as 16 hex digits, for error messages.
std::string fingerprint_hex(std::uint64_t fingerprint);

}  // namespace cid::serve
