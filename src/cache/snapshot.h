#pragma once
// Versioned binary snapshot container for cache persistence.
//
// A warm-restarted daemon is only worth having if the on-disk format is
// honest about compatibility: a snapshot written by a different (newer)
// format, truncated by a crashed writer, or bit-flipped on disk must be
// rejected with a clear error so the daemon starts cold instead of serving
// garbage. The container therefore carries:
//
//   magic   u32   "ERMC" (little-endian 0x434D5245) — wrong file entirely
//   format  u16   kSnapshotFormatVersion; readers reject any other value
//                 (forward-rejecting: an old binary never guesses at a new
//                 layout), naming both versions in the error
//   flags   u16   reserved, must be zero
//   build   str   build_info() of the writer — informational, surfaced in
//                 errors so "written by 1.2.0, this is 1.0.0" is diagnosable
//   body_len u64  exact byte length of the body that follows the checksum
//   checksum u64  FNV-1a64 over the body bytes
//   body          u32 section count, then per section:
//                 u32 section id, u64 record count, then per record:
//                 u64 key (fingerprint), u32 payload length, payload bytes
//
// Section ids and payload encodings belong to the owner (the eval cache
// uses 1=report; format 1 also carried its retired sections 2 and 3); the
// container neither knows nor cares. Records are written sorted by key so
// identical cache contents produce byte-identical files regardless of
// hash-map iteration order.
//
// Encoder/Decoder are also the building blocks for the payloads themselves:
// little-endian fixed-width integers, f64 via bit pattern, and length-
// prefixed strings, with every Decoder read bounds-checked (a hostile or
// corrupt payload yields `ok() == false`, never an out-of-range read).

#include <cstdint>
#include <string>
#include <vector>

namespace ermes::cache {

inline constexpr std::uint32_t kSnapshotMagic = 0x434D5245u;  // "ERMC" LE
inline constexpr std::uint16_t kSnapshotFormatVersion = 2;

/// Little-endian byte-stream writer.
class Encoder {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  // exact bit pattern, round-trips NaN/inf
  void str(const std::string& v);  // u16 length + bytes
  void bytes(const char* data, std::size_t len) { out_.append(data, len); }

  const std::string& data() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked little-endian reader: every accessor returns a value-
/// default on under-run and latches ok() = false, so decode loops can run
/// to completion and check once.
class Decoder {
 public:
  Decoder(const char* data, std::size_t len) : data_(data), len_(len) {}
  explicit Decoder(const std::string& buf) : Decoder(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();
  /// Exactly n raw bytes (empty + !ok() on under-run).
  std::string raw(std::size_t n);

  bool ok() const { return ok_; }
  std::size_t remaining() const { return len_ - pos_; }
  bool at_end() const { return ok_ && pos_ == len_; }

 private:
  bool ensure(std::size_t n);
  const char* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

struct SnapshotRecord {
  std::uint64_t key = 0;
  std::string payload;
};

struct SnapshotSection {
  std::uint32_t id = 0;
  std::vector<SnapshotRecord> records;
};

struct Snapshot {
  std::string build;  // writer's build_info(); informational on read
  std::vector<SnapshotSection> sections;
};

/// Serializes the snapshot (records sorted by key per section, checksummed).
std::string write_snapshot(const Snapshot& snapshot);

/// Parses and verifies a snapshot buffer. On failure returns false and sets
/// *error (when non-null) to a clear, actionable message; *out is left
/// empty. Rejections: bad magic, format-version mismatch, truncation,
/// checksum mismatch, malformed body.
bool read_snapshot(const std::string& buffer, Snapshot* out,
                   std::string* error);

/// File variants. write_snapshot_file writes atomically against process
/// crashes (temp file, fsync, rename) so a crash mid-save never leaves a
/// truncated snapshot at `path`. Power-loss durability is best-effort (the
/// directory fsync after the rename is not error-checked); a torn file is
/// caught by the checksum at load time and the daemon starts cold.
bool write_snapshot_file(const std::string& path, const Snapshot& snapshot,
                         std::string* error);
bool read_snapshot_file(const std::string& path, Snapshot* out,
                        std::string* error);

/// FNV-1a64 over a byte buffer (the body checksum).
std::uint64_t snapshot_checksum(const char* data, std::size_t len);

}  // namespace ermes::cache
