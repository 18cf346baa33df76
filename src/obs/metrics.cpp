#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cid::obs {

std::vector<std::pair<std::string, std::int64_t>> engine_counters(
    const EngineMetrics& m) {
  return {
      {"engine.rounds", m.rounds},
      {"engine.stop_checks", m.stop_checks},
      {"engine.rows_filled", m.rows_filled},
      {"engine.rows_pruned", m.rows_pruned},
      {"engine.rows_replayed", m.rows_replayed},
      {"engine.ctx_refresh_ns", m.ctx_refresh_ns},
      {"engine.row_fill_ns", m.row_fill_ns},
      {"engine.draw_ns", m.draw_ns},
      {"engine.apply_ns", m.apply_ns},
      {"engine.stop_check_ns", m.stop_check_ns},
  };
}

MetricsRegistry::CounterId MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i].name == name) return i;
  }
  counters_.emplace_back();
  counters_.back().name = std::string(name);
  return counters_.size() - 1;
}

MetricsRegistry::HistogramId MetricsRegistry::histogram(
    std::string_view name, std::vector<double> bounds) {
  if (bounds.empty()) {
    throw std::invalid_argument("histogram bounds must be non-empty");
  }
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (!std::isfinite(bounds[i]) ||
        (i > 0 && !(bounds[i - 1] < bounds[i]))) {
      throw std::invalid_argument(
          "histogram bounds must be finite and strictly increasing");
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    if (histograms_[i].name == name) return i;
  }
  histograms_.emplace_back();
  Histogram& h = histograms_.back();
  h.name = std::string(name);
  h.bounds = std::move(bounds);
  for (std::size_t i = 0; i <= h.bounds.size(); ++i) h.buckets.emplace_back(0);
  return histograms_.size() - 1;
}

void MetricsRegistry::add(CounterId id, std::int64_t delta) noexcept {
  counters_[id].value.fetch_add(delta, std::memory_order_relaxed);
}

std::int64_t MetricsRegistry::value(CounterId id) const noexcept {
  return counters_[id].value.load(std::memory_order_relaxed);
}

void MetricsRegistry::observe(HistogramId id, double value) noexcept {
  Histogram& h = histograms_[id];
  // First bucket whose upper bound admits the value; NaN compares false
  // against every bound and falls through to overflow.
  std::size_t bucket = h.bounds.size();
  for (std::size_t i = 0; i < h.bounds.size(); ++i) {
    if (value <= h.bounds[i]) {
      bucket = i;
      break;
    }
  }
  h.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  h.count.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20-library-optional; CAS is portable.
  double expected = h.sum.load(std::memory_order_relaxed);
  while (!h.sum.compare_exchange_weak(expected, expected + value,
                                      std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::add_named(std::string_view name, std::int64_t delta) {
  add(counter(name), delta);
}

void MetricsRegistry::merge_engine(std::string_view prefix,
                                   const EngineMetrics& m) {
  for (const auto& [name, value] : engine_counters(m)) {
    add_named(std::string(prefix) + name, value);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snap.counters.reserve(counters_.size());
    for (const Counter& c : counters_) {
      snap.counters.push_back(
          {c.name, c.value.load(std::memory_order_relaxed)});
    }
    snap.histograms.reserve(histograms_.size());
    for (const Histogram& h : histograms_) {
      HistogramValue v;
      v.name = h.name;
      v.bounds = h.bounds;
      v.buckets.reserve(h.buckets.size());
      for (const auto& b : h.buckets) {
        v.buckets.push_back(b.load(std::memory_order_relaxed));
      }
      v.count = h.count.load(std::memory_order_relaxed);
      v.sum = h.sum.load(std::memory_order_relaxed);
      snap.histograms.push_back(std::move(v));
    }
  }
  std::sort(snap.counters.begin(), snap.counters.end(),
            [](const CounterValue& a, const CounterValue& b) {
              return a.name < b.name;
            });
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const HistogramValue& a, const HistogramValue& b) {
              return a.name < b.name;
            });
  return snap;
}

void MetricsRegistry::reset_values() noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (Counter& c : counters_) c.value.store(0, std::memory_order_relaxed);
  for (Histogram& h : histograms_) {
    for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    h.count.store(0, std::memory_order_relaxed);
    h.sum.store(0.0, std::memory_order_relaxed);
  }
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

struct PersistIoIds {
  MetricsRegistry::CounterId bytes;
  MetricsRegistry::CounterId writes;
  MetricsRegistry::CounterId fsyncs;
  MetricsRegistry::CounterId fflushes;
  MetricsRegistry::CounterId write_failures;
  MetricsRegistry::CounterId write_retries;
};

const PersistIoIds& persist_io_ids() {
  static const PersistIoIds ids = {
      global_metrics().counter("persist.bytes_written"),
      global_metrics().counter("persist.writes"),
      global_metrics().counter("persist.fsyncs"),
      global_metrics().counter("persist.fflushes"),
      global_metrics().counter("persist.write_failures"),
      global_metrics().counter("persist.write_retries"),
  };
  return ids;
}

}  // namespace

void record_persist_write(std::uint64_t bytes, int fsyncs) noexcept {
  const PersistIoIds& ids = persist_io_ids();
  MetricsRegistry& reg = global_metrics();
  reg.add(ids.bytes, static_cast<std::int64_t>(bytes));
  reg.add(ids.writes, 1);
  if (fsyncs > 0) reg.add(ids.fsyncs, fsyncs);
}

void record_persist_flush() noexcept {
  global_metrics().add(persist_io_ids().fflushes, 1);
}

void record_persist_write_failure() noexcept {
  global_metrics().add(persist_io_ids().write_failures, 1);
}

void record_persist_write_retry() noexcept {
  global_metrics().add(persist_io_ids().write_retries, 1);
}

PersistIoTotals persist_io_totals() noexcept {
  const PersistIoIds& ids = persist_io_ids();
  const MetricsRegistry& reg = global_metrics();
  return {reg.value(ids.bytes),          reg.value(ids.writes),
          reg.value(ids.fsyncs),         reg.value(ids.fflushes),
          reg.value(ids.write_failures), reg.value(ids.write_retries)};
}

}  // namespace cid::obs
