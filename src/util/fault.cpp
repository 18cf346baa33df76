#include "util/fault.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace cid::util {

namespace {

struct FaultRule {
  std::string site;       // exact name, or prefix when wildcard
  bool wildcard = false;  // site ended in '*'
  FaultKind kind = FaultKind::kNone;
  std::uint64_t hit = 0;    // fire on exactly this consultation (1-based)
  std::uint64_t every = 0;  // fire on every N-th consultation
  double p = -1.0;          // fire with this probability per consultation
  std::uint64_t count = 0;  // max fires (0 = unlimited)
  std::atomic<std::uint64_t> seen{0};
  std::atomic<std::uint64_t> fired{0};
};

struct FaultSchedule {
  std::uint64_t seed = 1;
  std::vector<std::unique_ptr<FaultRule>> rules;
};

// The armed flag is the ONLY thing the hot path reads; the schedule
// pointer is swapped under the mutex and never freed mid-run (configure/
// clear are CLI-setup / test-fixture operations, not concurrent with
// consultations).
std::atomic<bool> g_armed{false};
std::mutex g_mutex;
std::shared_ptr<FaultSchedule> g_schedule;  // guarded by g_mutex for writes
std::atomic<std::int64_t> g_injected{0};
std::atomic<CrashHandler> g_crash_handler{nullptr};

/// splitmix64 finalizer — the decision hash for p-rules.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool site_matches(const FaultRule& rule, const char* site) noexcept {
  const std::string_view s(site);
  if (rule.wildcard) {
    return s.size() >= rule.site.size() &&
           s.compare(0, rule.site.size(), rule.site) == 0;
  }
  return s == rule.site;
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    throw std::runtime_error("--inject-faults: bad " + what + " '" + text +
                             "'");
  }
  if (used != text.size()) {
    throw std::runtime_error("--inject-faults: bad " + what + " '" + text +
                             "'");
  }
  return static_cast<std::uint64_t>(v);
}

FaultKind parse_kind(const std::string& text) {
  if (text == "err") return FaultKind::kError;
  if (text == "short") return FaultKind::kShortWrite;
  if (text == "enospc") return FaultKind::kEnospc;
  if (text == "crash") return FaultKind::kCrash;
  throw std::runtime_error("--inject-faults: unknown fault kind '" + text +
                           "' (expected err|short|enospc|crash)");
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t next = text.find(sep, pos);
    parts.push_back(
        text.substr(pos, next == std::string::npos ? next : next - pos));
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  return parts;
}

std::shared_ptr<FaultSchedule> parse_spec(const std::string& spec) {
  auto schedule = std::make_shared<FaultSchedule>();
  for (const std::string& part : split(spec, ';')) {
    if (part.empty()) continue;
    if (part.rfind("seed=", 0) == 0) {
      schedule->seed = parse_u64(part.substr(5), "seed");
      continue;
    }
    const std::vector<std::string> fields = split(part, ':');
    if (fields.size() < 2 || fields[0].empty()) {
      throw std::runtime_error("--inject-faults: expected SITE:KIND[:OPT...]"
                               " in '" + part + "'");
    }
    auto rule = std::make_unique<FaultRule>();
    rule->site = fields[0];
    if (!rule->site.empty() && rule->site.back() == '*') {
      rule->wildcard = true;
      rule->site.pop_back();
    }
    rule->kind = parse_kind(fields[1]);
    bool have_trigger = false;
    for (std::size_t i = 2; i < fields.size(); ++i) {
      const std::string& opt = fields[i];
      if (opt.rfind("hit=", 0) == 0) {
        rule->hit = parse_u64(opt.substr(4), "hit");
        if (rule->hit == 0) {
          throw std::runtime_error("--inject-faults: hit= must be >= 1");
        }
        have_trigger = true;
      } else if (opt.rfind("every=", 0) == 0) {
        rule->every = parse_u64(opt.substr(6), "every");
        if (rule->every == 0) {
          throw std::runtime_error("--inject-faults: every= must be >= 1");
        }
        have_trigger = true;
      } else if (opt.rfind("p=", 0) == 0) {
        std::size_t used = 0;
        try {
          rule->p = std::stod(opt.substr(2), &used);
        } catch (const std::exception&) {
          used = std::string::npos;
        }
        if (used != opt.size() - 2 || rule->p < 0.0 || rule->p > 1.0) {
          throw std::runtime_error("--inject-faults: p= must be in [0,1]");
        }
        have_trigger = true;
      } else if (opt.rfind("count=", 0) == 0) {
        rule->count = parse_u64(opt.substr(6), "count");
      } else {
        throw std::runtime_error("--inject-faults: unknown option '" + opt +
                                 "' in '" + part + "'");
      }
    }
    // Bare SITE:KIND fires on every consultation; a hit= rule fires once
    // unless count= widens it.
    if (!have_trigger) rule->every = 1;
    if (rule->hit != 0 && rule->count == 0) rule->count = 1;
    schedule->rules.push_back(std::move(rule));
  }
  return schedule;
}

}  // namespace

void configure_faults(const std::string& spec) {
  auto schedule = parse_spec(spec);
  const bool any = !schedule->rules.empty();
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_schedule = any ? std::move(schedule) : nullptr;
  g_armed.store(any, std::memory_order_release);
}

void clear_faults() noexcept {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_schedule = nullptr;
  g_armed.store(false, std::memory_order_release);
}

bool faults_armed() noexcept {
  return g_armed.load(std::memory_order_acquire);
}

void set_fault_crash_handler(CrashHandler handler) noexcept {
  g_crash_handler.store(handler, std::memory_order_release);
}

std::int64_t faults_injected() noexcept {
  return g_injected.load(std::memory_order_relaxed);
}

FaultAction fault_point(const char* site) {
  if (!g_armed.load(std::memory_order_acquire)) return {};
  std::shared_ptr<FaultSchedule> schedule;
  {
    const std::lock_guard<std::mutex> lock(g_mutex);
    schedule = g_schedule;
  }
  if (schedule == nullptr) return {};
  for (std::size_t r = 0; r < schedule->rules.size(); ++r) {
    FaultRule& rule = *schedule->rules[r];
    if (!site_matches(rule, site)) continue;
    const std::uint64_t seen =
        rule.seen.fetch_add(1, std::memory_order_relaxed) + 1;
    bool fire = false;
    if (rule.hit != 0) {
      fire = seen == rule.hit;
    } else if (rule.every != 0) {
      fire = seen % rule.every == 0;
    } else if (rule.p >= 0.0) {
      // Pure hash of (seed, rule index, consultation index): the firing
      // pattern is a function of the spec alone, reproducible run to run.
      const std::uint64_t h =
          mix64(schedule->seed ^ mix64(static_cast<std::uint64_t>(r) << 32 |
                                       seen));
      fire = static_cast<double>(h >> 11) * 0x1.0p-53 < rule.p;
    }
    if (!fire) continue;
    if (rule.count != 0 &&
        rule.fired.fetch_add(1, std::memory_order_relaxed) >= rule.count) {
      continue;  // budget exhausted (fetch_add keeps it saturated)
    }
    g_injected.fetch_add(1, std::memory_order_relaxed);
    obs::global_metrics().add_named("fault.injected", 1);
    FaultAction action;
    action.kind = rule.kind;
    action.detail = std::string(site) + ":" +
                    (rule.kind == FaultKind::kError        ? "err"
                     : rule.kind == FaultKind::kShortWrite ? "short"
                     : rule.kind == FaultKind::kEnospc     ? "enospc"
                                                           : "crash") +
                    "#" + std::to_string(seen);
    if (action.kind == FaultKind::kCrash) {
      if (CrashHandler handler =
              g_crash_handler.load(std::memory_order_acquire)) {
        handler(site);  // tests: throws fault_crash, unwinding like a kill
      } else {
        // Like SIGKILL: every stdio buffer still in user space is lost.
        // Only the diagnostic line is flushed.
        std::fprintf(stderr, "cid: injected crash at %s\n", site);
        std::fflush(stderr);
        std::_Exit(137);
      }
    }
    return action;
  }
  return {};
}

}  // namespace cid::util
