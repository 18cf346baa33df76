#include "persist/snapshot.hpp"

#include <utility>

#include "persist/binio.hpp"
#include "persist/codec.hpp"

namespace cid::persist {

namespace {

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

/// The sections every family shares: round, config, RNG, family id,
/// cumulative trial stats.
template <typename SnapshotT>
void encode_common(BinWriter& payload, const SnapshotT& snapshot,
                   SnapshotFamily family) {
  add_section(payload, kSnapSecFamily, [&](BinWriter& out) {
    out.u8(static_cast<std::uint8_t>(family));
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
}

/// One BinReader per section body, pre-loaded with the context string.
BinReader section_reader(const SectionScan& scan, std::uint16_t tag,
                         const char* name, const std::string& path) {
  return BinReader(scan.require(tag, name), path + ": section " + name);
}

struct CommonFields {
  std::int64_t round = 0;
  SimConfig config;
  std::array<std::uint64_t, 4> rng_state{};
  std::int64_t movers = 0;
};

CommonFields decode_common(const SectionScan& scan, const std::string& path) {
  CommonFields fields;
  {
    BinReader in = section_reader(scan, kSnapSecRound, "round", path);
    fields.round = in.i64();
    if (fields.round < 0) in.fail("negative round counter");
  }
  {
    BinReader in = section_reader(scan, kSnapSecConfig, "config", path);
    fields.config = decode_config(in);
  }
  {
    BinReader in = section_reader(scan, kSnapSecRng, "rng", path);
    for (auto& word : fields.rng_state) word = in.u64();
  }
  if (const auto body = scan.find(kSnapSecTrialStats)) {
    BinReader in(*body, path + ": section trial-stats");
    fields.movers = in.i64();
  }
  return fields;
}

SnapshotFamily family_of(const SectionScan& scan, const std::string& path) {
  const auto body = scan.find(kSnapSecFamily);
  if (!body.has_value()) return SnapshotFamily::kSymmetric;
  BinReader in(*body, path + ": section family");
  const std::uint8_t value = in.u8();
  if (value > static_cast<std::uint8_t>(SnapshotFamily::kThreshold)) {
    in.fail("unknown snapshot family " + std::to_string(value));
  }
  return static_cast<SnapshotFamily>(value);
}

[[noreturn]] void wrong_family(const std::string& path,
                               SnapshotFamily found, const char* wanted) {
  const char* names[] = {"symmetric", "asymmetric", "threshold"};
  throw persist_error(path + ": this is a " +
                      names[static_cast<std::uint8_t>(found)] +
                      "-family snapshot, not " + wanted +
                      " (load it with the matching loader)");
}

/// v1 payload: fixed field order, symmetric family only.
Snapshot load_snapshot_v1(const std::string& payload,
                          const std::string& path) {
  BinReader in(payload, path);
  const std::int64_t round = in.i64();
  if (round < 0) in.fail("negative round counter");
  SimConfig config = decode_config(in);
  std::array<std::uint64_t, 4> rng_state{};
  for (auto& word : rng_state) word = in.u64();
  CongestionGame game = decode_game(in);
  const std::uint32_t k = in.u32();
  if (k != static_cast<std::uint32_t>(game.num_strategies())) {
    in.fail("state dimension does not match embedded game");
  }
  std::vector<std::int64_t> counts(k);
  for (auto& c : counts) c = in.i64();
  in.expect_done();
  return Snapshot{round, std::move(config), rng_state, std::move(game),
                  std::move(counts), 0};
}

FramedFile read_snapshot_file(const std::string& path) {
  return read_file_checked(path, kSnapshotMagic, kAnyVersion);
}

}  // namespace

Snapshot make_snapshot(const CongestionGame& game, const State& x,
                       const Rng& rng, std::int64_t round,
                       const SimConfig& config, std::int64_t movers) {
  return Snapshot{round, config, rng.state(), game,
                  {x.counts().begin(), x.counts().end()}, movers};
}

std::string snapshot_payload(const Snapshot& snapshot) {
  BinWriter payload;
  encode_common(payload, snapshot, SnapshotFamily::kSymmetric);
  add_section(payload, kSnapSecGame,
              [&](BinWriter& out) { encode_game(out, snapshot.game); });
  add_section(payload, kSnapSecCounts, [&](BinWriter& out) {
    out.u32(static_cast<std::uint32_t>(snapshot.counts.size()));
    for (std::int64_t c : snapshot.counts) out.i64(c);
  });
  return payload.take();
}

void save_snapshot(const Snapshot& snapshot, const std::string& path) {
  write_file_atomic(path, kSnapshotMagic, kSnapshotVersion,
                    snapshot_payload(snapshot));
}

Snapshot load_snapshot(const std::string& path) {
  const FramedFile file = read_snapshot_file(path);
  if (file.version == 1) return load_snapshot_v1(file.payload, path);

  const SectionScan scan(file.payload, path);
  const SnapshotFamily family = family_of(scan, path);
  if (family != SnapshotFamily::kSymmetric) {
    wrong_family(path, family, "symmetric");
  }
  CommonFields common = decode_common(scan, path);

  BinReader game_in = section_reader(scan, kSnapSecGame, "game", path);
  CongestionGame game = decode_game(game_in);
  game_in.expect_done();

  BinReader counts_in = section_reader(scan, kSnapSecCounts, "counts", path);
  const std::uint32_t k = counts_in.u32();
  if (k != static_cast<std::uint32_t>(game.num_strategies())) {
    counts_in.fail("state dimension does not match embedded game");
  }
  std::vector<std::int64_t> counts(k);
  for (auto& c : counts) c = counts_in.i64();
  counts_in.expect_done();

  Snapshot snapshot{common.round,    std::move(common.config),
                    common.rng_state, std::move(game),
                    std::move(counts), common.movers};
  snapshot.state();  // re-validate counts against the game before returning
  return snapshot;
}

void save_asymmetric_snapshot(const AsymmetricSnapshot& snapshot,
                              const std::string& path) {
  BinWriter payload;
  encode_common(payload, snapshot, SnapshotFamily::kAsymmetric);
  add_section(payload, kSnapSecAsymGame, [&](BinWriter& out) {
    encode_asymmetric_game(out, snapshot.game);
  });
  add_section(payload, kSnapSecAsymCounts, [&](BinWriter& out) {
    // Through the codec's state encoder (constructing the state also
    // re-validates the counts against the game before they hit disk).
    encode_asymmetric_state(out, AsymmetricState(snapshot.game,
                                                 snapshot.counts));
  });
  write_file_atomic(path, kSnapshotMagic, kSnapshotVersion, payload.take());
}

AsymmetricSnapshot load_asymmetric_snapshot(const std::string& path) {
  const FramedFile file = read_snapshot_file(path);
  if (file.version == 1) {
    wrong_family(path, SnapshotFamily::kSymmetric, "asymmetric");
  }
  const SectionScan scan(file.payload, path);
  const SnapshotFamily family = family_of(scan, path);
  if (family != SnapshotFamily::kAsymmetric) {
    wrong_family(path, family, "asymmetric");
  }
  CommonFields common = decode_common(scan, path);

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

  return AsymmetricSnapshot{common.round,     std::move(common.config),
                            common.rng_state, std::move(game),
                            std::move(counts), common.movers};
}

void save_threshold_snapshot(const ThresholdSnapshot& snapshot,
                             const std::string& path) {
  BinWriter payload;
  encode_common(payload, snapshot, SnapshotFamily::kThreshold);
  add_section(payload, kSnapSecThreshold, [&](BinWriter& out) {
    out.u8(snapshot.tripled ? 1 : 0);
    encode_maxcut(out, snapshot.instance);
  });
  add_section(payload, kSnapSecThresholdBits, [&](BinWriter& out) {
    encode_packed_bits(out, snapshot.in_bits);
  });
  write_file_atomic(path, kSnapshotMagic, kSnapshotVersion, payload.take());
}

ThresholdSnapshot load_threshold_snapshot(const std::string& path) {
  const FramedFile file = read_snapshot_file(path);
  if (file.version == 1) {
    wrong_family(path, SnapshotFamily::kSymmetric, "threshold");
  }
  const SectionScan scan(file.payload, path);
  const SnapshotFamily family = family_of(scan, path);
  if (family != SnapshotFamily::kThreshold) {
    wrong_family(path, family, "threshold");
  }
  CommonFields common = decode_common(scan, path);

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

  return ThresholdSnapshot{common.round,      std::move(common.config),
                           common.rng_state,  std::move(instance),
                           tripled,           std::move(bits),
                           common.movers};
}

SnapshotFamily peek_snapshot_family(const std::string& path) {
  const FramedFile file = read_snapshot_file(path);
  if (file.version == 1) return SnapshotFamily::kSymmetric;
  const SectionScan scan(file.payload, path);
  return family_of(scan, path);
}

}  // namespace cid::persist
