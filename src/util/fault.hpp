// Deterministic fault injection for the persistence and sweep runtimes.
//
// A process-global, seeded schedule of failures at named sites. Writers
// consult fault_point("site") at every injectable operation; with no
// schedule armed that is one relaxed atomic load, so production runs take
// the exact pre-fault code path.
//
// Spec grammar (CLI --inject-faults SPEC; parts separated by ';'):
//
//   SPEC := PART (';' PART)*
//   PART := 'seed=' N                     schedule seed (default 1)
//         | SITE ':' KIND (':' OPT)*      one rule
//   KIND := 'err'      the operation fails (I/O error)
//         | 'short'    half the payload reaches the file, then it fails
//         | 'enospc'   the operation fails with "no space left on device"
//         | 'crash'    the process dies at the point (see crash handler)
//   OPT  := 'hit=' N   fire on exactly the N-th matching consultation
//                      (1-based; implies count=1 unless count is given)
//         | 'every=' N fire on every N-th matching consultation
//         | 'p=' P     fire with probability P per consultation — the
//                      decision is a pure hash of (seed, rule, hit index),
//                      so the firing pattern is a deterministic function
//                      of the spec, not of a shared RNG stream
//         | 'count=' K fire at most K times (0 = unlimited)
//
// SITE is an exact site name, or a prefix ending in '*' ("manifest.*").
// Sites currently consulted (grep fault_point for the authority):
//
//   manifest.append  manifest.header  manifest.flush  manifest.rotate
//   manifest.merge   eventlog.block   eventlog.header  eventlog.flush
//   eventlog.rotate  snapshot.write   snapshot.rename  sweep.trial
//   net.accept       net.read        net.write       serve.lease_expire
//
// The net.* sites live in src/serve/net.cpp (per accepted connection /
// per read call / per frame write; net.write:short lands half the frame
// before failing — a torn wire frame). serve.lease_expire is consulted
// once per lease GRANT in the cid_serve coordinator: a firing poisons
// that lease so it deterministically never completes, making lease-loss
// tests a function of the schedule instead of timing.
//
// Decisions are keyed on per-rule consultation counters, so a schedule is
// fully deterministic for a deterministic consultation order (tests and
// the CI byte-compares run --threads 1). Every injected fault bumps the
// "fault.injected" global counter.
//
// Crash-at-point: by default FaultKind::kCrash calls std::_Exit(137) with
// only stderr flushed — a real kill for subprocess tests: bytes a writer
// left in a stdio buffer are lost, exactly as under SIGKILL. Tests install
// a crash handler that throws instead (fault_crash), which the sweep
// runner's retry logic deliberately re-throws, so an in-process test
// observes exactly the aborted-run state a kill would leave.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace cid::util {

enum class FaultKind : int {
  kNone = 0,
  kError,       // the operation fails outright
  kShortWrite,  // a torn write: part of the payload lands, then failure
  kEnospc,      // failure reported as "no space left on device"
  kCrash,       // process death at the point (or the crash handler)
};

struct FaultAction {
  FaultKind kind = FaultKind::kNone;
  /// Which rule fired, for error messages ("manifest.append:err#2").
  std::string detail;
};

/// Thrown by test crash handlers to simulate process death in-process.
/// Retry/degradation paths must NOT catch it — a crash is not a
/// recoverable error, it is the end of the run.
class fault_crash : public std::runtime_error {
 public:
  explicit fault_crash(const std::string& message)
      : std::runtime_error(message) {}
};

/// Parses and arms `spec` (replacing any previous schedule). Throws
/// std::runtime_error on bad grammar. An empty spec disarms.
void configure_faults(const std::string& spec);

/// Disarms and forgets the schedule (and resets per-rule counters).
void clear_faults() noexcept;

/// True when any schedule is armed.
bool faults_armed() noexcept;

/// Consults the schedule at `site`. Almost always returns kNone — with no
/// schedule armed this is a single relaxed atomic load. For kCrash, the
/// crash handler runs first; the default handler does not return.
FaultAction fault_point(const char* site);

/// Replaces the crash behavior (nullptr restores the default _Exit(137)).
/// Tests install a handler that throws fault_crash.
using CrashHandler = void (*)(const char* site);
void set_fault_crash_handler(CrashHandler handler) noexcept;

/// Process-lifetime count of injected faults (mirrors the global
/// "fault.injected" metrics counter; survives clear_faults()).
std::int64_t faults_injected() noexcept;

}  // namespace cid::util
