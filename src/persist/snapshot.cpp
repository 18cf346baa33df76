#include "persist/snapshot.hpp"

#include <type_traits>
#include <utility>
#include <variant>

#include "persist/binio.hpp"
#include "persist/codec.hpp"
#include "util/assert.hpp"

namespace cid::persist {

namespace {

// Snapshot::family() reads the variant index as the family value.
template <typename Part>
constexpr bool kIndexedByFamily = std::is_same_v<
    std::variant_alternative_t<static_cast<std::size_t>(Part::kFamily),
                               decltype(Snapshot::part)>,
    Part>;
static_assert(kIndexedByFamily<SymmetricPart> &&
              kIndexedByFamily<AsymmetricPart> &&
              kIndexedByFamily<ThresholdPart>);

// Section tags. Appending new tags is a compatible change (readers skip
// what they do not know); renumbering or re-purposing existing tags is a
// breaking change and requires a new magic or major version.
enum SnapshotSection : std::uint16_t {
  kSnapSecRound = 1,       // round:i64
  kSnapSecConfig = 2,      // SimConfig fields
  kSnapSecRng = 3,         // 4 x u64
  kSnapSecGame = 4,        // symmetric game codec
  kSnapSecCounts = 5,      // symmetric per-strategy counts
  kSnapSecFamily = 6,      // family:u8 (absent => symmetric)
  kSnapSecAsymGame = 7,    // asymmetric game codec
  kSnapSecAsymCounts = 8,  // per-class per-strategy counts
  kSnapSecThreshold = 9,   // maxcut instance + tripled:u8
  kSnapSecThresholdBits = 10,  // player count + packed strategy bits
  kSnapSecTrialStats = 11,     // movers:i64
  kSnapSecSemantics = 12,      // outcome_semantics:u32 (absent => 1)
};

void encode_config(BinWriter& out, const SimConfig& config) {
  out.str(config.protocol);
  out.f64(config.lambda);
  out.f64(config.p_explore);
  out.u8(config.nu_cutoff ? 1 : 0);
  out.u8(config.damping ? 1 : 0);
  out.i64(config.virtual_agents);
  out.u8(config.engine);
  out.str(config.stop);
}

SimConfig decode_config(BinReader& in) {
  SimConfig config;
  config.protocol = in.str();
  config.lambda = in.f64();
  config.p_explore = in.f64();
  config.nu_cutoff = in.u8() != 0;
  config.damping = in.u8() != 0;
  config.virtual_agents = in.i64();
  config.engine = in.u8();
  config.stop = in.str();
  return config;
}

template <typename Encoder>
void add_section(BinWriter& payload, std::uint16_t tag, Encoder&& encode) {
  BinWriter body;
  encode(body);
  write_section(payload, tag, body.buffer());
}

/// One BinReader per section body, pre-loaded with the context string.
BinReader section_reader(const SectionScan& scan, std::uint16_t tag,
                         const char* name, const std::string& path) {
  return BinReader(scan.require(tag, name), path + ": section " + name);
}

// ---- Family parts: the two sections each family appends after the shared
// ones, and their decoders.

void encode_part(BinWriter& payload, const SymmetricPart& part) {
  add_section(payload, kSnapSecGame,
              [&](BinWriter& out) { encode_game(out, part.game); });
  add_section(payload, kSnapSecCounts, [&](BinWriter& out) {
    out.u32(static_cast<std::uint32_t>(part.counts.size()));
    for (std::int64_t c : part.counts) out.i64(c);
  });
}

void encode_part(BinWriter& payload, const AsymmetricPart& part) {
  add_section(payload, kSnapSecAsymGame, [&](BinWriter& out) {
    encode_asymmetric_game(out, part.game);
  });
  add_section(payload, kSnapSecAsymCounts, [&](BinWriter& out) {
    // Constructing the state re-validates the counts before they hit disk.
    encode_asymmetric_state(out, part.state());
  });
}

void encode_part(BinWriter& payload, const ThresholdPart& part) {
  add_section(payload, kSnapSecThreshold, [&](BinWriter& out) {
    out.u8(part.tripled ? 1 : 0);
    encode_maxcut(out, part.instance);
  });
  add_section(payload, kSnapSecThresholdBits, [&](BinWriter& out) {
    encode_packed_bits(out, part.in_bits);
  });
}

/// Per-strategy counts, each checked against the players still unplaced
/// (so no sum over hostile counts can overflow); State re-validates.
std::vector<std::int64_t> decode_counts(BinReader& in,
                                        const CongestionGame& game) {
  const std::uint32_t k = in.u32();
  if (k != static_cast<std::uint32_t>(game.num_strategies())) {
    in.fail("state dimension does not match embedded game");
  }
  std::vector<std::int64_t> counts(k);
  std::int64_t unplaced = game.num_players();
  for (auto& c : counts) {
    c = in.i64();
    if (c < 0 || c > unplaced) in.fail("strategy counts exceed the players");
    unplaced -= c;
  }
  return counts;
}

SymmetricPart decode_symmetric(const SectionScan& scan,
                               const std::string& path) {
  BinReader game_in = section_reader(scan, kSnapSecGame, "game", path);
  CongestionGame game = decode_game(game_in);
  game_in.expect_done();
  BinReader counts_in = section_reader(scan, kSnapSecCounts, "counts", path);
  std::vector<std::int64_t> counts = decode_counts(counts_in, game);
  counts_in.expect_done();
  return {std::move(game), std::move(counts)};
}

AsymmetricPart decode_asymmetric(const SectionScan& scan,
                                 const std::string& path) {
  BinReader game_in =
      section_reader(scan, kSnapSecAsymGame, "asymmetric-game", path);
  AsymmetricGame game = decode_asymmetric_game(game_in);
  game_in.expect_done();
  BinReader counts_in =
      section_reader(scan, kSnapSecAsymCounts, "asymmetric-counts", path);
  // The codec validates per-class dimensions against the game BEFORE
  // allocating, and the AsymmetricState constructor re-checks totals.
  std::vector<std::vector<std::int64_t>> counts =
      decode_asymmetric_state(counts_in, game).counts();
  counts_in.expect_done();
  return {std::move(game), std::move(counts)};
}

ThresholdPart decode_threshold(const SectionScan& scan,
                               const std::string& path) {
  BinReader inst_in =
      section_reader(scan, kSnapSecThreshold, "threshold-game", path);
  const bool tripled = inst_in.u8() != 0;
  MaxCutInstance instance = decode_maxcut(inst_in);
  inst_in.expect_done();
  BinReader bits_in =
      section_reader(scan, kSnapSecThresholdBits, "threshold-bits", path);
  // Bound: tripled games hold 3 players per MaxCut node at most.
  std::vector<bool> bits = decode_packed_bits(bits_in, 1u << 20);
  bits_in.expect_done();
  return {std::move(instance), tripled, std::move(bits)};
}

/// v1 payload: fixed field order, symmetric family only.
Snapshot decode_v1(const std::string& payload, const std::string& path) {
  BinReader in(payload, path);
  const std::int64_t round = in.i64();
  if (round < 0) in.fail("negative round counter");
  SimConfig config = decode_config(in);
  config.outcome_semantics = 1;
  std::array<std::uint64_t, 4> rng_state{};
  for (auto& word : rng_state) word = in.u64();
  CongestionGame game = decode_game(in);
  std::vector<std::int64_t> counts = decode_counts(in, game);
  in.expect_done();
  return Snapshot{round, std::move(config), rng_state, 0,
                  SymmetricPart{std::move(game), std::move(counts)}};
}

/// The part the family section names (absent => symmetric).
decltype(Snapshot::part) decode_family_part(const SectionScan& scan,
                                            const std::string& path) {
  auto family = SnapshotFamily::kSymmetric;
  if (const auto body = scan.find(kSnapSecFamily)) {
    BinReader in(*body, path + ": section family");
    const std::uint8_t value = in.u8();
    if (value > static_cast<std::uint8_t>(SnapshotFamily::kThreshold)) {
      in.fail("unknown snapshot family " + std::to_string(value));
    }
    family = static_cast<SnapshotFamily>(value);
  }
  switch (family) {
    case SnapshotFamily::kSymmetric:
      return decode_symmetric(scan, path);
    case SnapshotFamily::kAsymmetric:
      return decode_asymmetric(scan, path);
    case SnapshotFamily::kThreshold:
      return decode_threshold(scan, path);
  }
  throw persist_error(path + ": unhandled snapshot family");
}

/// v2 payload: the shared sections, then the part the family names.
Snapshot decode_v2(const std::string& payload, const std::string& path) {
  const SectionScan scan(payload, path);
  Snapshot snapshot{0, {}, {}, 0, decode_family_part(scan, path)};
  {
    BinReader in = section_reader(scan, kSnapSecRound, "round", path);
    snapshot.round = in.i64();
    if (snapshot.round < 0) in.fail("negative round counter");
  }
  {
    BinReader in = section_reader(scan, kSnapSecConfig, "config", path);
    snapshot.config = decode_config(in);
  }
  snapshot.config.outcome_semantics = 1;
  if (const auto body = scan.find(kSnapSecSemantics)) {
    BinReader in(*body, path + ": section semantics");
    snapshot.config.outcome_semantics = in.u32();
  }
  {
    BinReader in = section_reader(scan, kSnapSecRng, "rng", path);
    for (auto& word : snapshot.rng_state) word = in.u64();
  }
  if (const auto body = scan.find(kSnapSecTrialStats)) {
    BinReader in(*body, path + ": section trial-stats");
    snapshot.movers = in.i64();
  }
  return snapshot;
}

const char* family_name(SnapshotFamily family) {
  static const char* const names[] = {"symmetric", "asymmetric", "threshold"};
  return names[static_cast<std::uint8_t>(family)];
}

}  // namespace

Snapshot make_snapshot(const CongestionGame& game, const State& x,
                       const Rng& rng, std::int64_t round,
                       const SimConfig& config, std::int64_t movers) {
  return Snapshot{round, config, rng.state(), movers,
                  SymmetricPart{game, {x.counts().begin(), x.counts().end()}}};
}

void Snapshot::require_family(SnapshotFamily wanted,
                              const std::string& path) const {
  if (family() != wanted) {
    throw persist_error(path + ": snapshot of the " + family_name(family()) +
                        " family, expected " + family_name(wanted));
  }
}

std::string snapshot_payload(const Snapshot& snapshot) {
  BinWriter payload;
  add_section(payload, kSnapSecFamily, [&](BinWriter& out) {
    out.u8(static_cast<std::uint8_t>(snapshot.family()));
  });
  add_section(payload, kSnapSecRound,
              [&](BinWriter& out) { out.i64(snapshot.round); });
  add_section(payload, kSnapSecConfig,
              [&](BinWriter& out) { encode_config(out, snapshot.config); });
  add_section(payload, kSnapSecRng, [&](BinWriter& out) {
    for (std::uint64_t word : snapshot.rng_state) out.u64(word);
  });
  add_section(payload, kSnapSecTrialStats,
              [&](BinWriter& out) { out.i64(snapshot.movers); });
  add_section(payload, kSnapSecSemantics, [&](BinWriter& out) {
    out.u32(snapshot.config.outcome_semantics);
  });
  std::visit([&](const auto& part) { encode_part(payload, part); },
             snapshot.part);
  return payload.take();
}

void save_snapshot(const Snapshot& snapshot, const std::string& path) {
  write_file_atomic(path, kSnapshotMagic, kSnapshotVersion,
                    snapshot_payload(snapshot));
}

Snapshot load_snapshot(const std::string& path) {
  const FramedFile file =
      read_file_checked(path, kSnapshotMagic, kAnyVersion);
  try {
    Snapshot snapshot = file.version == 1 ? decode_v1(file.payload, path)
                                          : decode_v2(file.payload, path);
    // Re-validate symmetric counts against the game before returning.
    if (const auto* part = std::get_if<SymmetricPart>(&snapshot.part)) {
      part->state();
    }
    return snapshot;
  } catch (const invariant_violation& e) {
    // The game and state constructors re-check every decoded invariant; a
    // violation here means the bytes are wrong, not the program.
    throw persist_error(path + ": invalid snapshot contents: " + e.what());
  }
}

void require_current_semantics(const SimConfig& config,
                               const std::string& path) {
  if (config.outcome_semantics != kOutcomeSemantics) {
    throw persist_error(
        path + ": snapshot records outcome semantics v" +
        std::to_string(config.outcome_semantics) + ", this build computes v" +
        std::to_string(kOutcomeSemantics) + " — refusing to resume");
  }
}

}  // namespace cid::persist
