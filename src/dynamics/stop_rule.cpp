#include "dynamics/stop_rule.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "dynamics/equilibrium.hpp"
#include "game/latency_context.hpp"

namespace cid {

namespace {

constexpr std::string_view kDeltaEpsPrefix = "deltaeps:";

/// Reads one double filling exactly `field`.
bool parse_double(std::string_view field, double& out) {
  const auto [end, ec] =
      std::from_chars(field.data(), field.data() + field.size(), out);
  return ec == std::errc() && end == field.data() + field.size() &&
         !field.empty();
}

void append_double(std::string& out, double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, result.ptr);
}

}  // namespace

StopSpec parse_stop(std::string_view text) {
  if (text == "stable") return {StopRule::kImitationStable};
  if (text == "nash") return {StopRule::kNash};
  if (!text.starts_with(kDeltaEpsPrefix)) {
    throw std::invalid_argument("unknown stop condition");
  }
  const std::string_view args = text.substr(kDeltaEpsPrefix.size());
  const auto comma = args.find(',');
  StopSpec spec;
  if (comma == std::string_view::npos ||
      !parse_double(args.substr(0, comma), spec.delta) ||
      !parse_double(args.substr(comma + 1), spec.eps)) {
    throw std::invalid_argument("expected --stop deltaeps:D,E");
  }
  if (!(spec.delta >= 0.0 && spec.delta <= 1.0 && spec.eps >= 0.0 &&
        std::isfinite(spec.eps))) {
    throw std::invalid_argument("deltaeps:D,E needs 0 <= D <= 1 and E >= 0");
  }
  return spec;
}

std::string format_stop(const StopSpec& spec) {
  switch (spec.rule) {
    case StopRule::kImitationStable:
      return "stable";
    case StopRule::kNash:
      return "nash";
    case StopRule::kDeltaEps: {
      std::string out(kDeltaEpsPrefix);
      append_double(out, spec.delta);
      out += ',';
      append_double(out, spec.eps);
      return out;
    }
  }
  throw std::invalid_argument("unhandled stop rule");
}

StopPredicate make_stop(const StopSpec& spec) {
  return [cached = make_cached_stop(spec)](const CongestionGame& game,
                                           const State& x,
                                           std::int64_t round) {
    LatencyContext ctx;
    ctx.reset(game, x);
    return cached(ctx, round);
  };
}

CachedStopPredicate make_cached_stop(const StopSpec& spec) {
  switch (spec.rule) {
    case StopRule::kImitationStable:
      return [](const LatencyContext& ctx, std::int64_t) {
        return is_imitation_stable(ctx, ctx.game().nu());
      };
    case StopRule::kNash:
      return [](const LatencyContext& ctx, std::int64_t) {
        return is_nash(ctx);
      };
    case StopRule::kDeltaEps:
      // The δ bound is fixed once per run; each check compares integers.
      return [delta = DeltaThreshold(spec.delta), eps = spec.eps](
                 const LatencyContext& ctx, std::int64_t) {
        return is_delta_eps_equilibrium(ctx, delta, eps);
      };
  }
  throw std::invalid_argument("unhandled stop rule");
}

CachedStopPredicate make_cached_stop(const StopSpec& spec,
                                     const AsymmetricGame& classes) {
  if (spec.rule == StopRule::kNash) {
    return [&classes](const LatencyContext& ctx, std::int64_t) {
      return is_asymmetric_nash(classes, ctx);
    };
  }
  return [&classes](const LatencyContext& ctx, std::int64_t) {
    return is_asymmetric_imitation_stable(classes, ctx, classes.nu());
  };
}

}  // namespace cid
