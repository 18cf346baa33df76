// Span tracing: lock-cheap per-thread span buffers emitting Chrome
// trace-event JSON (load the file in chrome://tracing or
// https://ui.perfetto.dev) — the timeline view of what the counters in
// obs/metrics.hpp only total.
//
// Model: one process-global collector, disabled by default. start_tracing()
// arms it; every thread that emits gets its own append-only buffer (one
// mutex acquisition per thread per session, then plain push_back), and
// stop_tracing_to() joins the buffers into one JSON file and disarms.
// Emitters are expected to be quiescent by then — the sweep pool joins its
// workers before the CLI stops the trace.
//
// The PR 6 observability contract applies unchanged: spans read the steady
// clock and nothing else (zero RNG, no effect on any output byte), a
// disarmed collector costs one relaxed atomic load per hook. Engine
// phases are sampled (every
// trace_engine_sample_interval() rounds) so multi-million-round runs
// produce bounded traces.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace cid::obs {

/// True between start_tracing() and stop_tracing_to(). Hook call sites
/// branch on this before building span names/args so the disabled path
/// stays one atomic load.
bool trace_enabled() noexcept;

/// Arms the collector: clears previous buffers, fixes the trace epoch
/// (timestamps are reported relative to this call).
void start_tracing();

/// Writes every buffered event as Chrome trace-event JSON to `path`
/// (fails loudly on I/O errors), disarms the collector, and returns the
/// number of events written. Not thread-safe against concurrent emitters:
/// callers stop tracing only after worker threads have joined.
std::size_t stop_tracing_to(const std::string& path);

/// Engine-phase sampling interval K: rounds with round % K == 0 emit
/// phase spans (so short smoke runs always trace round 0). Default 64.
std::int64_t trace_engine_sample_interval() noexcept;
void set_trace_engine_sample_interval(std::int64_t every);

/// Emits one complete ("ph":"X") span with explicit steady-clock
/// endpoints — for spans whose start was captured before the emit point
/// (queue waits, trial bodies). `name` must outlive the trace session
/// (string literals); `args_json` is a pre-serialized JSON object ("{}"
/// style) or empty for none. No-op when tracing is disarmed.
void trace_emit(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                std::string args_json = {});

/// Emits an instant event ("ph":"i", thread scope) — checkpoint writes,
/// log rotations. No-op when tracing is disarmed.
void trace_instant(const char* name, std::string args_json = {});

/// RAII complete-span: measures construction→destruction. A null `name`
/// or disarmed collector makes it a no-op, so call sites can write
/// `TraceSpan span(sampled ? "engine.draw" : nullptr);`.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept
      : name_(trace_enabled() ? name : nullptr),
        start_(name_ != nullptr ? now_ns() : 0) {}
  ~TraceSpan() {
    if (name_ != nullptr) trace_emit(name_, start_, now_ns());
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::int64_t start_;
};

}  // namespace cid::obs
