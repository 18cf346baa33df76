#include "latency/kernel.hpp"

namespace cid {

void LatencyTable::add(const LatencyFunction& fn) {
  Entry en;
  en.fn = &fn;
  // Recognize one level of ScaledLatency as a divisor over its base. n_
  // was stored from an int64, so double(divisor()) reproduces it exactly;
  // deeper nesting (scaled-of-scaled, scaled-of-exponential) stays opaque.
  const LatencyFunction* inner = &fn;
  double divisor = 1.0;
  if (const auto* scaled = dynamic_cast<const ScaledLatency*>(inner)) {
    divisor = static_cast<double>(scaled->divisor());
    inner = &scaled->base();
  }
  if (const auto* constant = dynamic_cast<const ConstantLatency*>(inner)) {
    en.kind = Kind::kConstant;
    en.a = constant->constant();
  } else if (const auto* mono = dynamic_cast<const MonomialLatency*>(inner)) {
    en.kind = Kind::kMonomial;
    en.a = mono->coefficient();
    en.b = mono->degree();
    en.divisor = divisor;
  } else if (const auto* poly =
                 dynamic_cast<const PolynomialLatency*>(inner)) {
    en.kind = Kind::kPolynomial;
    en.offset = static_cast<std::uint32_t>(coef_.size());
    en.len = static_cast<std::uint32_t>(poly->coefficients().size());
    en.divisor = divisor;
    coef_.insert(coef_.end(), poly->coefficients().begin(),
                 poly->coefficients().end());
  } else {
    en.kind = Kind::kOpaque;  // virtual fallback handles any scaling itself
  }
  entries_.push_back(en);
}

double LatencyTable::potential(std::span<const std::int64_t> loads) const {
  CID_ENSURE(loads.size() == entries_.size(),
             "potential needs one load per resource");
  long double acc = 0.0L;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    const Entry& en = entries_[e];
    switch (kSimdCompiled ? en.kind : Kind::kOpaque) {
      case Kind::kConstant:
        add_prefix<Kind::kConstant>(en, loads[e], acc);
        break;
      case Kind::kMonomial:
        add_prefix<Kind::kMonomial>(en, loads[e], acc);
        break;
      case Kind::kPolynomial:
        add_prefix<Kind::kPolynomial>(en, loads[e], acc);
        break;
      case Kind::kOpaque:
        add_prefix<Kind::kOpaque>(en, loads[e], acc);
        break;
    }
  }
  return static_cast<double>(acc);
}

}  // namespace cid
