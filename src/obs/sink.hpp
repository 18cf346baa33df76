// Metrics sinks: turn a MetricsSnapshot into something a human or a tool
// can read. Three backends (ISSUE 6): util/Table summaries for the CLIs,
// an append-only JSONL snapshot stream, and Prometheus-style text
// exposition for the future cid_serve daemon.
//
// Sinks live entirely off the hot path — they are fed already-collected
// snapshots, so they have no determinism or overhead constraints beyond
// failing loudly on I/O errors (mirroring sweep/output.cpp).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace cid::obs {

/// A double in max_digits10 significant digits, so it reads back to the
/// same bits. The one formatter behind every double a JSON, JSONL or CSV
/// output carries (metrics, telemetry, sweep results).
std::string format_round_trip(double value);

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslash, control characters).
std::string json_escape(std::string_view s);

/// Tiny single-level JSON object builder for metrics records. Values are
/// appended in call order; doubles use max round-trip precision.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, std::int64_t value);
  JsonObject& num(std::string_view key, double value);
  JsonObject& str(std::string_view key, std::string_view value);
  /// Inserts pre-serialized JSON (an array or nested object) verbatim.
  JsonObject& raw(std::string_view key, std::string_view json);

  /// Returns the finished "{...}" text; the builder must not be reused.
  std::string take();

 private:
  void key(std::string_view k);
  std::string body_;
};

/// Abstract snapshot consumer.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;
  virtual void write(const MetricsSnapshot& snapshot) = 0;
};

/// Renders counters (and histogram count/sum lines) as a util/Table on
/// stdout — the human backend the CLI summaries extend.
class TableSink : public MetricsSink {
 public:
  explicit TableSink(std::string title = "metrics");
  void write(const MetricsSnapshot& snapshot) override;

 private:
  std::string title_;
};

/// Append-only JSONL stream. Every line is one record:
///   {"metrics_version":1,"kind":"<kind>", ...}
/// Snapshot records ("kind":"snapshot") carry a monotonically increasing
/// "seq", a "counters" object of name→value, and a "histograms" array.
/// Callers may also emit their own records (e.g. per-trial rows) via
/// record()/write_line() so one file interleaves snapshots and rows.
class JsonlSink : public MetricsSink {
 public:
  /// Opens `path` (truncating, or appending when append=true); throws on
  /// failure. close() (or destruction) flushes and throws on short
  /// writes, mirroring sweep/output.cpp's fail-loudly contract —
  /// destruction swallows the throw, so call close() when errors matter.
  explicit JsonlSink(const std::string& path, bool append = false);
  ~JsonlSink() override;

  /// Starts a record with the schema preamble already filled in.
  JsonObject record(std::string_view kind) const;

  /// Appends one finished record as a line and flushes it.
  void write_line(JsonObject&& object);

  /// Emits a "snapshot" record for the whole registry snapshot.
  void write(const MetricsSnapshot& snapshot) override;

  std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  const std::string& path() const noexcept { return path_; }

  void close();

 private:
  std::string path_;
  std::ofstream out_;
  std::uint64_t bytes_written_ = 0;
  std::int64_t next_seq_ = 0;
};

/// Prometheus text exposition (version 0.0.4) of a snapshot. Names are
/// prefixed "cid_" and sanitized to [a-zA-Z0-9_:]; histograms expand to
/// cumulative _bucket{le="..."} series plus _sum/_count.
std::string prometheus_text(const MetricsSnapshot& snapshot);

/// Writes prometheus_text() to `path`, failing loudly.
void write_prometheus(const std::string& path,
                      const MetricsSnapshot& snapshot);

}  // namespace cid::obs
