#include "persist/block.hpp"

#include <array>
#include <cstring>

#include "persist/binio.hpp"

namespace cid::persist {

namespace {

// Token layout (LZ4 convention): high nibble = literal run length, low
// nibble = match length - kMinMatch; nibble value 15 means "read 255-run
// extension bytes". Matches are at least kMinMatch bytes (shorter ones
// cost more than they save) and reference offsets in [1, kWindow].
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kNibbleMax = 15;
constexpr std::size_t kWindow = 0xFFFF;
constexpr std::size_t kHashBits = 13;

std::uint32_t load32(const char* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t hash4(std::uint32_t v) noexcept {
  // Multiplicative hash of the next 4 bytes (Fibonacci constant).
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_length(std::string& out, std::size_t extra) {
  // 255-run extension: emitted only when the nibble saturated at 15.
  while (extra >= 255) {
    out.push_back(static_cast<char>(0xFF));
    extra -= 255;
  }
  out.push_back(static_cast<char>(extra));
}

void put_token(std::string& out, const char* literals, std::size_t lit_len,
               std::size_t match_len, std::size_t offset) {
  const std::size_t lit_nibble = lit_len < kNibbleMax ? lit_len : kNibbleMax;
  std::size_t match_nibble = 0;
  if (match_len > 0) {
    const std::size_t code = match_len - kMinMatch;
    match_nibble = code < kNibbleMax ? code : kNibbleMax;
  }
  out.push_back(static_cast<char>((lit_nibble << 4) | match_nibble));
  if (lit_nibble == kNibbleMax) put_length(out, lit_len - kNibbleMax);
  out.append(literals, lit_len);
  if (match_len == 0) return;  // terminal token: literals only
  out.push_back(static_cast<char>(offset & 0xFF));
  out.push_back(static_cast<char>(offset >> 8));
  if (match_nibble == kNibbleMax) {
    put_length(out, match_len - kMinMatch - kNibbleMax);
  }
}

}  // namespace

std::string lz_compress(std::string_view input) {
  std::string out;
  out.reserve(input.size() / 2 + 16);
  const char* base = input.data();
  const std::size_t size = input.size();

  // Single-probe hash table of candidate positions (+1 so 0 = empty).
  std::array<std::uint32_t, std::size_t{1} << kHashBits> table{};

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  // The last kMinMatch bytes can never start a match (hash needs 4 bytes)
  // and LZ4-style streams end in a literals-only token anyway.
  while (size >= kMinMatch && pos + kMinMatch <= size) {
    const std::uint32_t h = hash4(load32(base + pos));
    const std::uint32_t candidate = table[h];
    table[h] = static_cast<std::uint32_t>(pos) + 1;
    if (candidate != 0) {
      const std::size_t cand_pos = candidate - 1;
      const std::size_t offset = pos - cand_pos;
      if (offset <= kWindow && load32(base + cand_pos) == load32(base + pos)) {
        std::size_t match_len = kMinMatch;
        while (pos + match_len < size &&
               base[cand_pos + match_len] == base[pos + match_len]) {
          ++match_len;
        }
        put_token(out, base + literal_start, pos - literal_start, match_len,
                  offset);
        pos += match_len;
        literal_start = pos;
        continue;
      }
    }
    ++pos;
  }
  put_token(out, base + literal_start, size - literal_start, 0, 0);
  return out;
}

namespace {

std::size_t read_length(std::string_view in, std::size_t& pos,
                        std::size_t base_len, const std::string& context) {
  std::size_t len = base_len;
  for (;;) {
    if (pos >= in.size()) {
      throw persist_error(context + ": truncated length extension");
    }
    const auto byte = static_cast<unsigned char>(in[pos++]);
    len += byte;
    if (byte != 255) return len;
  }
}

}  // namespace

std::string lz_decompress(std::string_view input, std::size_t raw_size,
                          const std::string& context) {
  // A token stream cannot expand past 255 bytes per input byte (one
  // length-extension byte adds at most 255 to a match), so a larger claim
  // is corruption — refused before it becomes an allocation.
  if (raw_size / 255 > input.size()) {
    throw persist_error(context + ": declared block size " +
                        std::to_string(raw_size) + " exceeds what " +
                        std::to_string(input.size()) +
                        " stored bytes can encode");
  }
  std::string out;
  out.reserve(raw_size);
  std::size_t pos = 0;
  while (pos < input.size()) {
    const auto token = static_cast<unsigned char>(input[pos++]);
    std::size_t lit_len = token >> 4;
    if (lit_len == kNibbleMax) {
      lit_len = read_length(input, pos, kNibbleMax, context);
    }
    if (input.size() - pos < lit_len) {
      throw persist_error(context + ": literal run past end of block");
    }
    out.append(input.data() + pos, lit_len);
    pos += lit_len;
    if (pos == input.size()) {
      // Terminal token: literals only, match nibble must be empty.
      if ((token & 0xF) != 0) {
        throw persist_error(context + ": dangling match in terminal token");
      }
      break;
    }
    if (input.size() - pos < 2) {
      throw persist_error(context + ": truncated match offset");
    }
    const std::size_t offset =
        static_cast<unsigned char>(input[pos]) |
        (static_cast<std::size_t>(static_cast<unsigned char>(input[pos + 1]))
         << 8);
    pos += 2;
    std::size_t match_len = (token & 0xF) + kMinMatch;
    if ((token & 0xF) == kNibbleMax) {
      match_len = read_length(input, pos, kNibbleMax + kMinMatch, context);
    }
    if (offset == 0 || offset > out.size()) {
      throw persist_error(context + ": match offset outside decoded output");
    }
    if (out.size() + match_len > raw_size) {
      throw persist_error(context + ": match overflows declared block size");
    }
    // Byte-by-byte on purpose: overlapping matches (offset < length) are
    // the RLE case and must replicate the growing output.
    std::size_t src = out.size() - offset;
    for (std::size_t i = 0; i < match_len; ++i) out.push_back(out[src + i]);
  }
  if (out.size() != raw_size) {
    throw persist_error(context + ": block decodes to " +
                        std::to_string(out.size()) + " bytes, header says " +
                        std::to_string(raw_size));
  }
  return out;
}

std::pair<std::uint8_t, std::string> encode_block(std::string_view input) {
  std::string lz = lz_compress(input);
  if (lz.size() < input.size()) return {kBlockLz, std::move(lz)};
  return {kBlockRaw, std::string(input)};
}

std::string decode_block(std::uint8_t codec, std::string_view stored,
                         std::size_t raw_size, const std::string& context) {
  switch (codec) {
    case kBlockRaw:
      if (stored.size() != raw_size) {
        throw persist_error(context + ": raw block size mismatch");
      }
      return std::string(stored);
    case kBlockLz:
      return lz_decompress(stored, raw_size, context);
    default:
      throw persist_error(context + ": unknown block codec " +
                          std::to_string(codec));
  }
}

}  // namespace cid::persist
