#include "obs/trace_span.hpp"

#include <atomic>
#include <cstdio>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace cid::obs {

namespace {

struct TraceEvent {
  const char* name;       // literal; outlives the session by contract
  std::int64_t start_ns;  // absolute steady-clock
  std::int64_t dur_ns;    // < 0 ⇒ instant event
  std::string args_json;  // pre-serialized "{...}" or empty
};

/// One per emitting thread, registered on first emit of a session. The
/// deque keeps addresses stable while threads register concurrently.
struct ThreadBuffer {
  int tid = 0;
  std::vector<TraceEvent> events;
};

struct Collector {
  std::atomic<bool> enabled{false};
  /// Bumped by start_tracing(); a thread whose cached generation is stale
  /// re-registers instead of appending to a cleared buffer.
  std::atomic<std::uint64_t> generation{0};
  std::int64_t epoch_ns = 0;  // timestamps are relative to this
  std::mutex mutex;           // registration + stop only
  std::deque<ThreadBuffer> buffers;
  int next_tid = 1;
};

Collector& collector() {
  static Collector c;
  return c;
}

std::atomic<std::int64_t> g_engine_sample_interval{64};

thread_local ThreadBuffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_generation = 0;

ThreadBuffer& thread_buffer() {
  Collector& c = collector();
  const std::uint64_t gen = c.generation.load(std::memory_order_acquire);
  if (tl_buffer == nullptr || tl_generation != gen) {
    const std::lock_guard<std::mutex> lock(c.mutex);
    c.buffers.emplace_back();
    c.buffers.back().tid = c.next_tid++;
    tl_buffer = &c.buffers.back();
    tl_generation = gen;
  }
  return *tl_buffer;
}

/// Microsecond timestamps with sub-µs precision — the trace-event format's
/// native unit. Three decimals keeps nanosecond resolution.
void append_us(std::string& out, std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

bool trace_enabled() noexcept {
  return collector().enabled.load(std::memory_order_relaxed);
}

void start_tracing() {
  Collector& c = collector();
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.buffers.clear();
  c.next_tid = 1;
  c.epoch_ns = now_ns();
  c.generation.fetch_add(1, std::memory_order_release);
  c.enabled.store(true, std::memory_order_relaxed);
}

void trace_emit(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                std::string args_json) {
  if (!trace_enabled() || name == nullptr) return;
  thread_buffer().events.push_back(
      {name, start_ns, end_ns >= start_ns ? end_ns - start_ns : 0,
       std::move(args_json)});
}

void trace_instant(const char* name, std::string args_json) {
  if (!trace_enabled() || name == nullptr) return;
  thread_buffer().events.push_back(
      {name, now_ns(), -1, std::move(args_json)});
}

std::int64_t trace_engine_sample_interval() noexcept {
  return g_engine_sample_interval.load(std::memory_order_relaxed);
}

void set_trace_engine_sample_interval(std::int64_t every) {
  g_engine_sample_interval.store(every >= 1 ? every : 1,
                                 std::memory_order_relaxed);
}

std::size_t stop_tracing_to(const std::string& path) {
  Collector& c = collector();
  c.enabled.store(false, std::memory_order_relaxed);
  std::string out = "{\"traceEvents\":[";
  std::size_t events = 0;
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    for (const ThreadBuffer& buffer : c.buffers) {
      for (const TraceEvent& ev : buffer.events) {
        if (events > 0) out += ',';
        out += "{\"name\":\"";
        out += ev.name;  // literals: no escaping needed by contract
        out += "\",\"cat\":\"cid\",\"ph\":\"";
        out += ev.dur_ns < 0 ? 'i' : 'X';
        out += "\",\"ts\":";
        append_us(out, ev.start_ns - c.epoch_ns);
        if (ev.dur_ns < 0) {
          out += ",\"s\":\"t\"";
        } else {
          out += ",\"dur\":";
          append_us(out, ev.dur_ns);
        }
        out += ",\"pid\":1,\"tid\":";
        out += std::to_string(buffer.tid);
        if (!ev.args_json.empty()) {
          out += ",\"args\":";
          out += ev.args_json;
        }
        out += '}';
        ++events;
      }
    }
    c.buffers.clear();
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("cannot open trace output: " + path);
  }
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool ok = written == out.size() && std::fclose(f) == 0;
  if (!ok) throw std::runtime_error("short write on trace output: " + path);
  record_persist_write(out.size(), 0);
  return events;
}

}  // namespace cid::obs
