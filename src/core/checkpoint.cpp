#include "core/checkpoint.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "util/audit.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace rs::core {

namespace {

// "RSCK" little-endian.
constexpr std::uint32_t kMagic = 0x4B435352u;
// magic + version + kind + payload_size + crc32.
constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 8 + 4;

std::array<std::uint32_t, 256> make_crc_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void set_u32(std::vector<std::uint8_t>& out, std::size_t pos,
             std::uint32_t v) {
  out[pos] = static_cast<std::uint8_t>(v);
  out[pos + 1] = static_cast<std::uint8_t>(v >> 8);
  out[pos + 2] = static_cast<std::uint8_t>(v >> 16);
  out[pos + 3] = static_cast<std::uint8_t>(v >> 24);
}

void set_u64(std::vector<std::uint8_t>& out, std::size_t pos,
             std::uint64_t v) {
  set_u32(out, pos, static_cast<std::uint32_t>(v));
  set_u32(out, pos + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t pos) {
  return static_cast<std::uint32_t>(in[pos]) |
         (static_cast<std::uint32_t>(in[pos + 1]) << 8) |
         (static_cast<std::uint32_t>(in[pos + 2]) << 16) |
         (static_cast<std::uint32_t>(in[pos + 3]) << 24);
}

std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t pos) {
  return static_cast<std::uint64_t>(get_u32(in, pos)) |
         (static_cast<std::uint64_t>(get_u32(in, pos + 4)) << 32);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : bytes) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

// Fills the envelope header at `at` for the payload running from the end of
// that header to the end of the buffer.
void seal_header(std::vector<std::uint8_t>& buffer, std::size_t at,
                 std::uint32_t kind) {
  const std::size_t payload = at + kHeaderSize;
  set_u32(buffer, at, kMagic);
  set_u32(buffer, at + 4, kCheckpointVersion);
  set_u32(buffer, at + 8, kind);
  set_u64(buffer, at + 12, buffer.size() - payload);
  set_u32(buffer, at + 20,
          crc32(std::span<const std::uint8_t>(buffer).subspan(payload)));
}

}  // namespace

CheckpointWriter::CheckpointWriter() {
  // Covers the header plus the fixed fields of every session layer; the
  // tracker reserves its exact remainder before writing its forms.
  constexpr std::size_t kInitialCapacity = 256;
  buffer_.reserve(kInitialCapacity);
  buffer_.resize(kHeaderSize);
}

void CheckpointWriter::u8(std::uint8_t v) { buffer_.push_back(v); }

void CheckpointWriter::u32(std::uint32_t v) { put_u32(buffer_, v); }

void CheckpointWriter::u64(std::uint64_t v) { put_u64(buffer_, v); }

void CheckpointWriter::i32(std::int32_t v) {
  put_u32(buffer_, static_cast<std::uint32_t>(v));
}

void CheckpointWriter::i64(std::int64_t v) {
  put_u64(buffer_, static_cast<std::uint64_t>(v));
}

void CheckpointWriter::f64(double v) {
  put_u64(buffer_, std::bit_cast<std::uint64_t>(v));
}

void CheckpointWriter::bytes(std::span<const std::uint8_t> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void CheckpointWriter::reserve(std::size_t n) {
  buffer_.reserve(buffer_.size() + n);
}

std::size_t CheckpointWriter::begin_nested(std::uint32_t kind) {
  const std::size_t mark = buffer_.size();
  // Length prefix + nested header; end_nested fills in all but the kind.
  buffer_.resize(mark + 8 + kHeaderSize);
  set_u32(buffer_, mark + 8 + 8, kind);
  return mark;
}

void CheckpointWriter::end_nested(std::size_t mark) {
  const std::size_t header = mark + 8;
  const std::uint32_t kind = get_u32(buffer_, header + 8);
  seal_header(buffer_, header, kind);
  set_u64(buffer_, mark, buffer_.size() - header);
  RS_AUDIT(audit_envelope(
      std::span<const std::uint8_t>(buffer_).subspan(header), kind,
      "CheckpointWriter::end_nested"));
}

std::vector<std::uint8_t> CheckpointWriter::seal(std::uint32_t kind) const& {
  return CheckpointWriter(*this).seal(kind);
}

std::vector<std::uint8_t> CheckpointWriter::seal(std::uint32_t kind) && {
  seal_header(buffer_, 0, kind);
  RS_AUDIT(audit_envelope(buffer_, kind, "CheckpointWriter::seal"));
  return std::move(buffer_);
}

void audit_envelope(std::span<const std::uint8_t> bytes, std::uint32_t kind,
                    const char* site) {
  try {
    // The constructor validates magic, version, kind, payload size, and
    // CRC-32 — the full envelope contract a future restore depends on.
    const CheckpointReader reader(bytes, kind);
    (void)reader;
  } catch (const CheckpointError& e) {
    rs::util::audit::fail("checkpoint-envelope-roundtrip", site, e.what());
  }
}

CheckpointReader::CheckpointReader(std::span<const std::uint8_t> data,
                                   std::uint32_t expected_kind) {
  if (data.size() < kHeaderSize) {
    throw CheckpointFormatError(
        "checkpoint: truncated header (" + std::to_string(data.size()) +
        " of " + std::to_string(kHeaderSize) + " bytes)");
  }
  if (get_u32(data, 0) != kMagic) {
    throw CheckpointFormatError("checkpoint: bad magic");
  }
  const std::uint32_t version = get_u32(data, 4);
  if (version != kCheckpointVersion) {
    throw CheckpointFormatError("checkpoint: unsupported format version " +
                                std::to_string(version));
  }
  const std::uint32_t kind = get_u32(data, 8);
  if (kind != expected_kind) {
    throw CheckpointFormatError(
        "checkpoint: payload kind " + std::to_string(kind) + ", expected " +
        std::to_string(expected_kind));
  }
  const std::uint64_t size = get_u64(data, 12);
  if (size != data.size() - kHeaderSize) {
    throw CheckpointFormatError(
        "checkpoint: payload size " + std::to_string(size) + " does not "
        "match " + std::to_string(data.size() - kHeaderSize) +
        " available bytes");
  }
  payload_ = data.subspan(kHeaderSize);
  if (crc32(payload_) != get_u32(data, 20)) {
    throw CheckpointCorruptionError("checkpoint: payload checksum mismatch");
  }
}

void CheckpointReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw CheckpointFormatError("checkpoint: payload field truncated");
  }
}

std::uint8_t CheckpointReader::u8() {
  require(1);
  return payload_[pos_++];
}

std::uint32_t CheckpointReader::u32() {
  require(4);
  const std::uint32_t v = get_u32(payload_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t CheckpointReader::u64() {
  require(8);
  const std::uint64_t v = get_u64(payload_, pos_);
  pos_ += 8;
  return v;
}

std::int32_t CheckpointReader::i32() {
  return static_cast<std::int32_t>(u32());
}

std::int64_t CheckpointReader::i64() {
  return static_cast<std::int64_t>(u64());
}

double CheckpointReader::f64() { return std::bit_cast<double>(u64()); }

std::vector<std::uint8_t> CheckpointReader::bytes(std::size_t n) {
  require(n);
  std::vector<std::uint8_t> out(payload_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                payload_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

void CheckpointReader::finish() const {
  if (remaining() != 0) {
    throw CheckpointFormatError("checkpoint: " +
                                std::to_string(remaining()) +
                                " unconsumed payload bytes");
  }
}

std::uint32_t checkpoint_kind(std::span<const std::uint8_t> data) {
  if (data.size() < kHeaderSize) {
    throw CheckpointFormatError("checkpoint: truncated header");
  }
  if (get_u32(data, 0) != kMagic) {
    throw CheckpointFormatError("checkpoint: bad magic");
  }
  return get_u32(data, 8);
}

namespace {

// Flushes a written file's data and metadata to stable storage where the
// platform offers it; a failed fsync is a real write failure (the data may
// not survive a crash), so it throws like any other I/O error.
void sync_to_disk(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot reopen for fsync: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("fsync failed: " + path);
#else
  (void)path;
#endif
}

// Makes the rename itself durable: fsync the containing directory so the
// new directory entry survives a crash (best-effort on platforms where
// directories cannot be opened).
void sync_parent_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
}

}  // namespace

void write_checkpoint_file(const std::string& path,
                           std::span<const std::uint8_t> bytes) {
  // Crash-safe save discipline: temp file → fsync → atomic rename.  The
  // file named `path` is only ever replaced by a complete, durable image;
  // a crash mid-save leaves the previous checkpoint intact (plus at worst
  // a stray .tmp the next save overwrites).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open for writing: " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("write failed: " + tmp);
    }
  }
  try {
    sync_to_disk(tmp);
  } catch (...) {  // rs-lint: catch-all-ok (cleanup + rethrow)
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("rename failed: " + tmp + " -> " + path);
  }
  sync_parent_dir(path);
}

std::vector<std::uint8_t> read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) throw std::runtime_error("read failed: " + path);
  return bytes;
}

}  // namespace rs::core
