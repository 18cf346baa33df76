// Trial-lease wire protocol for distributed sweeps (cid_serve <-> workers).
//
// Transport: a TCP byte stream of length-prefixed frames,
//
//   frame := len:u32le payload:bytes[len]
//
// with 0 < len <= kMaxFrameBytes and the payload one JSON object. The
// codec layer here is transport-free (tests exercise it on plain strings);
// src/serve/net.* owns the sockets.
//
// Every message carries a "type". The conversation is strict RPC: the
// worker sends one request and the coordinator sends exactly one response
// frame — the coordinator never pushes unsolicited frames, so a reader is
// never guessing which request a frame answers.
//
//   hello    {"type":"hello","v":2,"fingerprint":"<16 hex>","worker":S,
//             "canary":"<66 hex>"}
//            -> welcome {"type":"welcome","v":2,"worker_id":N,
//                        "trials_total":N,"trials_done":N}
//            or error   {"type":"error","message":S} (version, grid or
//            canary mismatch; the coordinator closes after sending it)
//   lease    {"type":"lease","budget":N}   (N >= 1 caps the run; -1 = none)
//            -> grant   {"type":"grant","lease_id":N,"cell":N,"trial":N,
//                        "count":N,"ttl_ms":N}
//            or wait    {"type":"wait","backoff_ms":N}   (all work leased)
//            or drained {"type":"drained"}               (nothing left, ever)
//   renew    {"type":"renew","lease_id":N}
//            -> renewed {"type":"renewed","lease_id":N}
//            or lease_lost {"type":"lease_lost","lease_id":N}
//   complete {"type":"complete","lease_id":N,"cell":N,"count":N,
//             "outcomes":"<count x 74 hex>"}
//            -> ack {"type":"ack"} or lease_lost
//   requeue  {"type":"requeue","lease_id":N,"reason":S} -> ack
//   metrics  {"type":"metrics","metrics_version":1,"counters":{S:N,...}}
//            -> ack
//   bye      {"type":"bye"} -> ack
//
// A grant is a RUN: trials [trial, trial + count) of one cell, 1 <= count
// <= kMaxLeaseTrials. The worker runs them in trial order and lands the
// ones that succeeded with one complete (records in ascending trial
// order, any subset of the run); the coordinator appends them to its
// manifest, flushes once, and only then acks. A lease closes when every
// trial of its run has landed; requeue closes it early and hands back
// the trials that have not (the ones whose local retry budget ran out).
// An expired, poisoned or dropped lease is reclaimed the same way.
//
// Outcome records are fixed-width lowercase hex, so the grammar stays
// array-free and a batch's size is known from its count alone:
//
//   outcome := rounds:16 converged:2 movers:16 potential:16 social_cost:16
//   record  := trial:8 outcome                                  (74 digits)
//
// doubles are the 64 bits of the IEEE-754 value, movers the int64 in
// two's complement, converged "00" or "01", trial a u32. Manifest
// byte-identity between a fleet run and a local --threads 1 run rides on
// outcome doubles crossing the wire bit-exactly; hex bits make that
// unconditional (NaN and -0.0 included) instead of resting on decimal
// round-tripping.
//
// The canary is the outcome of one fixed tiny trial (canary_bits()): a
// worker whose build or platform lands different bits for it would land
// different bits for the grid too, so the coordinator refuses it at the
// handshake, before it can take a lease.
//
// Failure policy: a frame that cannot be parsed (bad length, bad JSON,
// wrong field types) throws proto_error. Peers treat that as a poisoned
// connection — there is no way to resynchronize a length-prefixed stream —
// and close it; the coordinator then reclaims the connection's leases.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/sink.hpp"
#include "sweep/scenario.hpp"

namespace cid::serve {

inline constexpr int kServeProtoVersion = 2;
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;
/// The longest run one grant may carry.
inline constexpr std::uint32_t kMaxLeaseTrials = 256;

/// A malformed frame or message: bad length prefix, invalid JSON, missing
/// or mistyped fields. Never recoverable on the same connection.
class proto_error : public std::runtime_error {
 public:
  explicit proto_error(const std::string& message)
      : std::runtime_error(message) {}
};

/// Wraps one JSON payload in a length-prefixed frame. Throws proto_error
/// on an empty or oversized payload (the writer-side guard of the same
/// limits the reader enforces).
std::string encode_frame(std::string_view payload);

/// Incremental frame decoder: feed() raw stream bytes in any chunking,
/// next() yields complete payloads in order. A zero or oversized length
/// prefix throws proto_error immediately — before waiting for the payload
/// — so a garbage stream is rejected, not buffered. buffered() exposes
/// how many bytes of an incomplete frame are pending (EOF with
/// buffered() > 0 means the peer died mid-frame).
class FrameReader {
 public:
  void feed(std::string_view bytes);
  std::optional<std::string> next();
  std::size_t buffered() const noexcept { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
};

// ---- Minimal JSON values (the protocol's parse side) ------------------------

/// Parsed JSON value. Only what the protocol grammar needs: objects,
/// strings, numbers (doubles, with exact int64 retained when the text is
/// integral), booleans, null. Arrays are rejected — no message uses them,
/// and a smaller grammar is a smaller attack surface for garbage frames.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::int64_t integer = 0;  // valid when is_integer
  bool is_integer = false;
  std::string string;
  std::map<std::string, JsonValue> object;
};

/// Parses exactly one JSON object (leading/trailing whitespace allowed;
/// trailing garbage is an error). Throws proto_error on anything else.
JsonValue parse_json(std::string_view text);

/// A parsed protocol message: a JSON object with typed field accessors
/// that throw proto_error (naming the field) on absence or wrong type.
class Message {
 public:
  /// Parses and requires a string "type" field.
  static Message parse(std::string_view payload);

  const std::string& type() const noexcept { return type_; }
  bool has(const std::string& key) const;
  std::string get_string(const std::string& key) const;
  std::int64_t get_int(const std::string& key) const;
  /// An integer field in [0, max].
  std::uint64_t get_uint(const std::string& key, std::uint64_t max) const;
  /// The name->integer map of a nested object field (the metrics push).
  std::map<std::string, std::int64_t> get_counters(
      const std::string& key) const;

 private:
  const JsonValue& field(const std::string& key) const;
  std::string type_;
  JsonValue root_;
};

// ---- Message builders (each returns the serialized JSON payload) ------------

/// One landed trial of a run.
struct TrialRecord {
  std::uint32_t trial = 0;
  sweep::TrialOutcome outcome;
};

std::string msg_hello(std::uint64_t fingerprint, std::string_view worker,
                      std::string_view canary);
std::string msg_welcome(std::int64_t worker_id, std::int64_t trials_total,
                        std::int64_t trials_done);
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

// ---- Typed decoders (each throws proto_error on any bad field) -------------

/// A grant's run.
struct Grant {
  std::uint64_t lease_id = 0;
  std::uint32_t cell = 0;
  std::uint32_t trial = 0;
  std::uint32_t count = 0;  // 1..kMaxLeaseTrials
  std::int64_t ttl_ms = 0;
};
Grant decode_grant(const Message& message);

/// The "budget" of a lease request: -1 or a count >= 1.
std::int64_t decode_budget(const Message& message);

/// A complete's records. The claimed count is checked against
/// `max_records` (the lease's unfinished trials) and against the length
/// of "outcomes" before anything is allocated for it.
struct Batch {
  std::uint64_t lease_id = 0;
  std::uint32_t cell = 0;
  std::vector<TrialRecord> records;
};
Batch decode_complete(const Message& message, std::size_t max_records);

/// One outcome as the fixed-width hex of the record grammar (doubles as
/// their exact bits), and back; outcome_from_hex throws proto_error
/// unless `hex` is exactly one outcome.
std::string outcome_hex(const sweep::TrialOutcome& outcome);
sweep::TrialOutcome outcome_from_hex(std::string_view hex);

/// outcome_hex of the canary trial: the fixed tiny grid of the handshake
/// (network-routing width 2 depth 2, n = 64, imitation, 64 rounds, seed
/// 0x5eed, cell 0 trial 0) through sweep::run_trial_step. Computed
/// once per process, so it consults the sweep.trial fault site once per
/// process; throws std::runtime_error if the trial fails.
const std::string& canary_bits();

/// Parses the 16-hex-digit grid fingerprint of a "hello".
std::uint64_t decode_fingerprint(const Message& message);

/// Formats a fingerprint the way msg_hello encodes it (16 hex digits).
std::string fingerprint_hex(std::uint64_t fingerprint);

}  // namespace cid::serve
