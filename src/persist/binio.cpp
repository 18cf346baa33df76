#include "persist/binio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "util/fault.hpp"

namespace cid::persist {

namespace {

// Slice-by-8: entries[0] is the bytewise table of the reflected IEEE
// polynomial; entries[k][b] is the CRC of byte b followed by k zero bytes,
// so eight table reads fold eight input bytes at once.
struct Crc32Table {
  std::array<std::array<std::uint32_t, 256>, 8> entries{};
  Crc32Table() noexcept {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[0][i] = c;
    }
    for (std::size_t k = 1; k < entries.size(); ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xFFu];
      }
    }
  }
};

const Crc32Table kCrc32Table;

constexpr int kMaxWriteAttempts = 3;  // per AppendFile write

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& t = kCrc32Table.entries;
  const auto le32 = [](const unsigned char* p) {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  };
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t lo = c ^ le32(bytes);
    const std::uint32_t hi = le32(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t read_le32(const char* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t read_le64(const char* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

void BinWriter::u8(std::uint8_t v) {
  buffer_.push_back(static_cast<char>(v));
}

void BinWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void BinWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void BinWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void BinWriter::vu64(std::uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  buffer_.push_back(static_cast<char>(v));
}

void BinWriter::vi64(std::int64_t v) {
  // Zigzag: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
  vu64((static_cast<std::uint64_t>(v) << 1) ^
       static_cast<std::uint64_t>(v >> 63));
}

void BinWriter::str(const std::string& s) {
  if (s.size() > 0xFFFFFFFFull) {
    throw persist_error("string too large to serialize");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  buffer_.append(s);
}

void BinWriter::raw(const void* data, std::size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

const void* BinReader::take(std::size_t size) {
  if (remaining() < size) {
    fail("truncated payload (wanted " + std::to_string(size) + " bytes, " +
         std::to_string(remaining()) + " left)");
  }
  const void* p = buffer_.data() + position_;
  position_ += size;
  return p;
}

std::uint8_t BinReader::u8() {
  return static_cast<std::uint8_t>(
      *static_cast<const unsigned char*>(take(1)));
}

std::uint32_t BinReader::u32() {
  return read_le32(static_cast<const char*>(take(4)));
}

std::uint64_t BinReader::u64() {
  return read_le64(static_cast<const char*>(take(8)));
}

double BinReader::f64() { return std::bit_cast<double>(u64()); }

std::uint64_t BinReader::vu64() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = u8();
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte holds the top single bit; anything above overflows.
      if (shift == 63 && (byte & 0x7E) != 0) fail("varint overflows u64");
      return v;
    }
  }
  fail("varint longer than 10 bytes");
}

std::int64_t BinReader::vi64() {
  const std::uint64_t z = vu64();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

std::string BinReader::str() {
  const std::uint32_t size = u32();
  const char* p = static_cast<const char*>(take(size));
  return std::string(p, size);
}

void BinReader::expect_done() const {
  if (!done()) {
    fail(std::to_string(remaining()) + " trailing bytes after payload");
  }
}

void BinReader::fail(const std::string& message) const {
  throw persist_error(context_ + ": " + message);
}

void write_section(BinWriter& out, std::uint16_t tag, std::string_view body) {
  if (body.size() > 0xFFFFFFFFull) {
    throw persist_error("section " + std::to_string(tag) +
                        " too large to serialize");
  }
  out.u8(static_cast<std::uint8_t>(tag & 0xFF));
  out.u8(static_cast<std::uint8_t>(tag >> 8));
  out.u32(static_cast<std::uint32_t>(body.size()));
  out.raw(body.data(), body.size());
}

SectionScan::SectionScan(std::string_view payload, std::string context)
    : context_(std::move(context)) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    if (payload.size() - pos < 2 + 4) {
      throw persist_error(context_ + ": truncated section header");
    }
    const auto tag = static_cast<std::uint16_t>(
        static_cast<unsigned char>(payload[pos]) |
        (static_cast<unsigned char>(payload[pos + 1]) << 8));
    const std::uint32_t length = read_le32(payload.data() + pos + 2);
    pos += 2 + 4;
    if (payload.size() - pos < length) {
      throw persist_error(context_ + ": section " + std::to_string(tag) +
                          " body truncated (wants " + std::to_string(length) +
                          " bytes, " + std::to_string(payload.size() - pos) +
                          " left)");
    }
    sections_.push_back(Section{tag, payload.substr(pos, length)});
    pos += length;
  }
}

std::optional<std::string_view> SectionScan::find(
    std::uint16_t tag) const noexcept {
  for (const Section& s : sections_) {
    if (s.tag == tag) return s.body;
  }
  return std::nullopt;
}

std::string_view SectionScan::require(std::uint16_t tag,
                                      const char* name) const {
  const auto body = find(tag);
  if (!body.has_value()) {
    throw persist_error(context_ + ": missing required section " + name +
                        " (tag " + std::to_string(tag) + ")");
  }
  return *body;
}

void checked_fwrite(std::FILE* file, const void* data, std::size_t size,
                    const char* site, const std::string& path) {
  if (util::faults_armed()) {
    const util::FaultAction fault = util::fault_point(site);
    switch (fault.kind) {
      case util::FaultKind::kNone:
        break;
      case util::FaultKind::kShortWrite:
        // Genuinely torn: half the payload reaches the stream (and the
        // OS) before the failure, so recovery paths must truncate, not
        // just rewrite.
        std::fwrite(data, 1, size / 2, file);
        std::fflush(file);
        throw persist_error(path + ": injected torn write (" +
                            fault.detail + ")");
      case util::FaultKind::kEnospc:
        throw persist_error(path + ": no space left on device (injected " +
                            fault.detail + ")");
      case util::FaultKind::kError:
      case util::FaultKind::kCrash:  // only if a crash handler returned
        throw persist_error(path + ": injected write error (" +
                            fault.detail + ")");
    }
  }
  if (std::fwrite(data, 1, size, file) != size) {
    throw persist_error(path + ": write failed (" + std::to_string(size) +
                        " bytes)");
  }
}

void checked_fflush(std::FILE* file, const char* site,
                    const std::string& path) {
  if (util::faults_armed() &&
      util::fault_point(site).kind != util::FaultKind::kNone) {
    throw persist_error(path + ": injected flush error at " + site);
  }
  if (std::fflush(file) != 0) {
    throw persist_error(path + ": flush failed");
  }
}

bool fsync_parent_dir(const std::string& path) noexcept {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return false;  // some filesystems refuse dir fsync
  const bool ok = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  return ok;
}

void write_bytes_atomic(const std::string& path, std::string_view bytes,
                        const char* write_site, const char* rename_site) {
  const std::string tmp = path + ".tmp";
  // fsync before the rename and fsync the directory after it: rename-over
  // is only atomic against POWER LOSS if the tmp file's data blocks are on
  // disk before the rename is journaled (delayed allocation on ext4/xfs
  // can otherwise journal the rename first, destroying the previous file
  // AND leaving the new one empty).
  //
  // Every failure mode leaves the previous file intact (the rename is
  // last), so a transient failure — real or injected — gets one retry
  // with a fresh tmp file before surfacing. fault_crash (a test crash
  // handler) is not persist_error and always propagates: a crash is not
  // retried, it ends the run.
  for (int attempt = 1;; ++attempt) {
    try {
      std::FILE* file = std::fopen(tmp.c_str(), "wb");
      if (file == nullptr) {
        throw persist_error("cannot open '" + tmp + "' for writing");
      }
      try {
        checked_fwrite(file, bytes.data(), bytes.size(), write_site, tmp);
        if (std::fflush(file) != 0 || ::fsync(::fileno(file)) != 0) {
          throw persist_error("write failed for '" + tmp + "'");
        }
      } catch (...) {
        std::fclose(file);
        std::remove(tmp.c_str());
        throw;
      }
      if (std::fclose(file) != 0) {
        std::remove(tmp.c_str());
        throw persist_error("close failed for '" + tmp + "'");
      }
      if (rename_site != nullptr && util::faults_armed() &&
          util::fault_point(rename_site).kind != util::FaultKind::kNone) {
        std::remove(tmp.c_str());
        throw persist_error("cannot rename '" + tmp + "' to '" + path +
                            "' (injected)");
      }
      if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw persist_error("cannot rename '" + tmp + "' to '" + path +
                            "'");
      }
      const bool dir_synced = fsync_parent_dir(path);
      obs::record_persist_write(bytes.size(),
                                /*fsyncs=*/1 + (dir_synced ? 1 : 0));
      return;
    } catch (const persist_error& e) {
      obs::record_persist_write_failure();
      if (attempt >= 2) throw;
      obs::record_persist_write_retry();
      std::fprintf(stderr, "cid: %s — retrying the write\n", e.what());
    }
  }
}

void write_file_atomic(const std::string& path, const std::string& magic,
                       std::uint8_t version, const std::string& payload) {
  // Checkpoint/snapshot writes are rare (checkpoint cadence, not round
  // cadence), so every one gets an unsampled span — the fsync cost is
  // exactly what a timeline reader wants to see.
  obs::TraceSpan span(obs::trace_enabled() ? "persist.write" : nullptr);
  BinWriter blob;
  blob.raw(magic.data(), magic.size());
  blob.u8(version);
  blob.u64(payload.size());
  blob.raw(payload.data(), payload.size());
  blob.u32(crc32(payload.data(), payload.size()));
  write_bytes_atomic(path, blob.buffer(), "snapshot.write", "snapshot.rename");
}

std::string slurp_file(const std::string& path) {
  // One read of the size fstat reports (plus the byte that confirms EOF);
  // the buffer only grows if the file does, or is not a regular file.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw persist_error("cannot open '" + path + "' for reading");
  struct stat st {};
  std::string data(::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)
                       ? static_cast<std::size_t>(st.st_size) + 1
                       : std::size_t{4096},
                   '\0');
  std::size_t got = 0;
  for (;;) {
    if (got == data.size()) data.resize(2 * data.size());
    const ssize_t n = ::read(fd, data.data() + got, data.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      if (n < 0) throw persist_error("read failed for '" + path + "'");
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  data.resize(got);
  return data;
}

std::string chain_segment_path(const std::string& path, std::uint32_t seq) {
  return path + "." + std::to_string(seq);
}

std::vector<std::string> chain_segments(const std::string& path) {
  std::vector<std::string> segments;
  for (std::uint32_t seq = 1;; ++seq) {
    std::string segment = chain_segment_path(path, seq);
    if (!std::filesystem::exists(segment)) break;
    segments.push_back(std::move(segment));
  }
  return segments;
}

std::uint32_t chain_last_seq(const std::string& path) {
  std::uint32_t last = 0;
  while (std::filesystem::exists(chain_segment_path(path, last + 1))) ++last;
  return last;
}

void remove_chain(const std::string& path) {
  for (std::uint32_t seq = 1;; ++seq) {
    std::error_code ec;
    if (!std::filesystem::remove(chain_segment_path(path, seq), ec)) break;
  }
}

void walk_chain(const std::string& path, const char* artifact,
                std::vector<std::string>& skipped,
                const std::function<void(const std::string&)>& visit) {
  for (const std::string& segment : chain_segments(path)) {
    try {
      visit(segment);
    } catch (const grid_mismatch_error&) {
      throw;  // wrong grid is never "corruption to skip"
    } catch (const persist_error& e) {
      // A rotated segment's rounds/records are gone but the rest of the
      // chain still reads; the active segment below stays fatal — there
      // is nothing newer to fall back to.
      std::fprintf(stderr, "cid: skipping corrupt %s segment '%s': %s\n",
                   artifact, segment.c_str(), e.what());
      skipped.push_back(segment);
    }
  }
  visit(path);
}

// ---- AppendFile -------------------------------------------------------------

AppendFile::AppendFile(std::string path, AppendArtifact artifact,
                       std::FILE* file)
    : path_(std::move(path)), artifact_(artifact), file_(file) {}

AppendFile::AppendFile(AppendFile&& other) noexcept
    : path_(std::move(other.path_)),
      artifact_(other.artifact_),
      file_(std::exchange(other.file_, nullptr)),
      bytes_(other.bytes_),
      rotate_seq_(other.rotate_seq_),
      rotation_off_(other.rotation_off_) {}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    close_quietly();
    path_ = std::move(other.path_);
    artifact_ = other.artifact_;
    file_ = std::exchange(other.file_, nullptr);
    bytes_ = other.bytes_;
    rotate_seq_ = other.rotate_seq_;
    rotation_off_ = other.rotation_off_;
  }
  return *this;
}

AppendFile AppendFile::create(std::string path, AppendArtifact artifact) {
  // A fresh artifact owns its rotation chain: stale segments from an
  // earlier run at the same path would pollute later chain reads.
  remove_chain(path);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    throw persist_error("cannot open '" + path + "' for writing");
  }
  return AppendFile(std::move(path), artifact, file);
}

AppendFile AppendFile::open(std::string path, AppendArtifact artifact,
                            std::uint64_t intact_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, intact_bytes, ec);
  if (ec) {
    throw persist_error(path + ": cannot drop damaged " + artifact.name +
                        " tail: " + ec.message());
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    throw persist_error("cannot open '" + path + "' for appending");
  }
  AppendFile out(std::move(path), artifact, file);
  out.bytes_ = intact_bytes;
  out.rotate_seq_ = chain_last_seq(out.path_);
  return out;
}

void AppendFile::check(bool ok, const char* what) const {
  if (!ok) {
    throw persist_error(path_ + ": " + artifact_.name + " " + what +
                        " failed");
  }
}

void AppendFile::recover() {
  if (file_ != nullptr) {
    // A failing close is fine here: whatever it could not flush is
    // re-established by the size check + rewrite below.
    std::fclose(file_);
    file_ = nullptr;
  }
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path_, ec);
  if (ec) {
    throw persist_error(path_ + ": " + artifact_.name +
                        " recovery failed: " + ec.message());
  }
  if (size < bytes_) {
    // Bytes already acknowledged to the caller never reached the file:
    // rewriting the CURRENT payload cannot restore them. Fail loudly.
    throw persist_error(path_ + ": " + artifact_.name +
                        " lost durable bytes (file holds " +
                        std::to_string(size) + ", writer acknowledged " +
                        std::to_string(bytes_) +
                        ") — durability lost, not retrying");
  }
  if (size > bytes_) {
    std::filesystem::resize_file(path_, bytes_, ec);
    if (ec) {
      throw persist_error(path_ + ": cannot drop torn " + artifact_.name +
                          " bytes: " + ec.message());
    }
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    throw persist_error("cannot reopen '" + path_ + "' after " +
                        artifact_.name + " write failure");
  }
}

void AppendFile::write(std::string_view bytes, const char* site) {
  for (int attempt = 1;; ++attempt) {
    try {
      check(file_ != nullptr, "write");
      checked_fwrite(file_, bytes.data(), bytes.size(), site, path_);
      bytes_ += bytes.size();
      obs::record_persist_write(bytes.size(), /*fsyncs=*/0);
      return;
    } catch (const persist_error& e) {
      obs::record_persist_write_failure();
      if (attempt >= kMaxWriteAttempts) throw;
      obs::record_persist_write_retry();
      std::fprintf(stderr,
                   "cid: %s — recovering %s and retrying the %s write "
                   "(attempt %d/%d)\n",
                   e.what(), artifact_.name, site, attempt + 1,
                   kMaxWriteAttempts);
      recover();  // throws when durability is actually lost
    }
  }
}

void AppendFile::flush() {
  check(file_ != nullptr, "flush");
  try {
    checked_fflush(file_, artifact_.flush_site, path_);
  } catch (const persist_error& e) {
    obs::record_persist_write_failure();
    obs::record_persist_write_retry();
    std::fprintf(stderr, "cid: %s — reopening %s after flush failure\n",
                 e.what(), artifact_.name);
    // recover() closes (flushing what the OS will take) and verifies every
    // acknowledged byte is on disk; afterwards nothing is buffered, so the
    // flush's goal is met or persist_error says durability is lost.
    recover();
  }
  obs::record_persist_flush();
}

void AppendFile::flush_and_close(const char* what) {
  const bool flushed = std::fflush(file_) == 0 && std::ferror(file_) == 0;
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  check(flushed && closed, what);
  obs::record_persist_flush();
}

bool AppendFile::rotate(std::uint64_t limit, std::string_view header) {
  if (limit == 0 || rotation_off_ || bytes_ < limit) return false;
  obs::trace_instant(artifact_.rotate_site);
  bool renamed = false;
  try {
    check(file_ != nullptr, "rotation");
    flush_and_close("pre-rotation flush");
    const std::string segment = chain_segment_path(path_, rotate_seq_ + 1);
    if (util::faults_armed() &&
        util::fault_point(artifact_.rotate_site).kind !=
            util::FaultKind::kNone) {
      throw persist_error(path_ + ": injected " + artifact_.name +
                          " rotation failure");
    }
    if (std::rename(path_.c_str(), segment.c_str()) != 0) {
      throw persist_error(path_ + ": cannot rotate " + artifact_.name +
                          " to '" + segment + "'");
    }
    renamed = true;
    fsync_parent_dir(path_);  // make the rename itself durable
    ++rotate_seq_;
    file_ = std::fopen(path_.c_str(), "wb");
    if (file_ == nullptr) {
      throw persist_error("cannot open '" + path_ +
                          "' for writing after rotation");
    }
    bytes_ = 0;
    write(header, artifact_.header_site);
    flush();
    return true;
  } catch (const persist_error& e) {
    obs::record_persist_write_failure();
    if (renamed) {
      // The active file is already renamed away and the fresh segment
      // could not be established even after write()'s retries — there is
      // nothing writable left to degrade to.
      throw;
    }
    // Graceful degradation: rotation bounds file sizes, it is not a
    // durability requirement. Validate and reopen the unrotated file,
    // disable further rotation, and say so loudly.
    rotation_off_ = true;
    if (file_ == nullptr) recover();
    std::fprintf(stderr,
                 "cid: %s — %s rotation disabled, continuing unrotated\n",
                 e.what(), artifact_.name);
    return false;
  }
}

void AppendFile::close() {
  check(file_ != nullptr, "double close");
  flush_and_close("close");
}

void AppendFile::close_quietly(std::string_view tail) noexcept {
  if (file_ == nullptr) return;
  if (!tail.empty()) std::fwrite(tail.data(), 1, tail.size(), file_);
  std::fclose(file_);
  file_ = nullptr;
}

FramedFile read_file_checked(const std::string& path,
                             const std::string& magic,
                             std::uint8_t max_version) {
  const std::string data = slurp_file(path);
  // magic + version + size + crc is the minimum structurally valid file.
  const std::size_t overhead = magic.size() + 1 + 8 + 4;
  if (data.size() < overhead) {
    throw persist_error(path + ": file too short to be a valid artifact");
  }
  if (data.compare(0, magic.size(), magic) != 0) {
    throw persist_error(path + ": bad magic (not a " + magic + " file)");
  }
  FramedFile file;
  file.version = static_cast<std::uint8_t>(
      static_cast<unsigned char>(data[magic.size()]));
  if (file.version < 1 || file.version > max_version) {
    throw persist_error(path + ": unsupported format version " +
                        std::to_string(file.version) + " (reader supports " +
                        "1.." + std::to_string(max_version) + ")");
  }
  const std::uint64_t payload_size = read_le64(data.data() + magic.size() + 1);
  if (payload_size != data.size() - overhead) {
    throw persist_error(path + ": payload size mismatch (header says " +
                        std::to_string(payload_size) + ", file holds " +
                        std::to_string(data.size() - overhead) + ")");
  }
  const char* payload = data.data() + magic.size() + 1 + 8;
  const std::uint32_t stored = read_le32(data.data() + data.size() - 4);
  const std::uint32_t actual =
      crc32(payload, static_cast<std::size_t>(payload_size));
  if (stored != actual) {
    throw persist_error(path + ": checksum mismatch (file corrupt)");
  }
  file.payload.assign(payload, static_cast<std::size_t>(payload_size));
  return file;
}

}  // namespace cid::persist
