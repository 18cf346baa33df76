#include "obs/sink.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/table.hpp"

namespace cid::obs {

std::string format_round_trip(double value) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonObject::key(std::string_view k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

JsonObject& JsonObject::num(std::string_view k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::num(std::string_view k, double value) {
  key(k);
  body_ += format_round_trip(value);
  return *this;
}

JsonObject& JsonObject::str(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::raw(std::string_view k, std::string_view json) {
  key(k);
  body_ += json;
  return *this;
}

std::string JsonObject::take() {
  std::string out;
  out.reserve(body_.size() + 2);
  out += '{';
  out += body_;
  out += '}';
  body_.clear();
  return out;
}

TableSink::TableSink(std::string title) : title_(std::move(title)) {}

void TableSink::write(const MetricsSnapshot& snapshot) {
  Table table({"metric", "value"});
  for (const CounterValue& c : snapshot.counters) {
    table.row().cell(c.name).cell(c.value);
  }
  for (const HistogramValue& h : snapshot.histograms) {
    table.row().cell(h.name + ".count").cell(h.count);
    table.row().cell(h.name + ".sum").cell(format_double(h.sum, 4));
  }
  table.print(title_);
}

JsonlSink::JsonlSink(const std::string& path, bool append)
    : path_(path),
      out_(path, append ? (std::ios::out | std::ios::app) : std::ios::out) {
  if (!out_) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
}

JsonlSink::~JsonlSink() {
  try {
    close();
  } catch (...) {
    // Destruction must not throw; call close() directly to see errors.
  }
}

JsonObject JsonlSink::record(std::string_view kind) const {
  JsonObject object;
  object.num("metrics_version", static_cast<std::int64_t>(kMetricsVersion));
  object.str("kind", kind);
  return object;
}

void JsonlSink::write_line(JsonObject&& object) {
  if (!out_.is_open()) {
    throw std::runtime_error("metrics sink '" + path_ + "' already closed");
  }
  const std::string line = object.take();
  out_ << line << '\n';
  out_.flush();
  if (!out_) {
    throw std::runtime_error("write failed (disk full?) for '" + path_ + "'");
  }
  bytes_written_ += line.size() + 1;
}

void JsonlSink::write(const MetricsSnapshot& snapshot) {
  JsonObject object = record("snapshot");
  object.num("seq", next_seq_++);

  std::string counters;
  for (const CounterValue& c : snapshot.counters) {
    if (!counters.empty()) counters += ',';
    counters += '"';
    counters += json_escape(c.name);
    counters += "\":";
    counters += std::to_string(c.value);
  }
  object.raw("counters", "{" + counters + "}");

  std::string histograms;
  for (const HistogramValue& h : snapshot.histograms) {
    JsonObject hist;
    hist.str("name", h.name);
    std::string bounds;
    for (const double b : h.bounds) {
      if (!bounds.empty()) bounds += ',';
      bounds += format_round_trip(b);
    }
    hist.raw("bounds", "[" + bounds + "]");
    std::string buckets;
    for (const std::int64_t b : h.buckets) {
      if (!buckets.empty()) buckets += ',';
      buckets += std::to_string(b);
    }
    hist.raw("buckets", "[" + buckets + "]");
    hist.num("count", h.count);
    hist.num("sum", h.sum);
    if (!histograms.empty()) histograms += ',';
    histograms += hist.take();
  }
  object.raw("histograms", "[" + histograms + "]");

  write_line(std::move(object));
}

void JsonlSink::close() {
  if (!out_.is_open()) return;
  out_.flush();
  const bool ok = static_cast<bool>(out_);
  out_.close();
  if (!ok) {
    throw std::runtime_error("write failed (disk full?) for '" + path_ + "'");
  }
}

namespace {

std::string prometheus_name(std::string_view name) {
  std::string out = "cid_";
  for (const char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  return out;
}

}  // namespace

std::string prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const CounterValue& c : snapshot.counters) {
    const std::string name = prometheus_name(c.name);
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(c.value) + "\n";
  }
  for (const HistogramValue& h : snapshot.histograms) {
    const std::string name = prometheus_name(h.name);
    out += "# TYPE " + name + " histogram\n";
    std::int64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += h.buckets[i];
      out += name + "_bucket{le=\"" + format_round_trip(h.bounds[i]) +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    cumulative += h.buckets.back();
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
    out += name + "_sum " + format_round_trip(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

void write_prometheus(const std::string& path,
                      const MetricsSnapshot& snapshot) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  out << prometheus_text(snapshot);
  out.flush();
  if (!out) {
    throw std::runtime_error("write failed (disk full?) for '" + path + "'");
  }
}

}  // namespace cid::obs
