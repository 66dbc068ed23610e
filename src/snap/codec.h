#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

/// Versioned, checksummed binary snapshots for pipeline-stage artifacts.
///
/// The paper's census (34M-subdomain DNS probing) is exactly the workload
/// that dies partway; cs::snap lets a killed run resume it instead of
/// redoing — or worse, silently corrupting — earlier work. The format is
/// deliberately dumb:
///
///   "CSNP" | u32 format version | u64 config hash | stage name |
///   u64 payload length | payload bytes | u64 FNV-1a(everything above)
///
/// All integers are little-endian and length-prefixed where variable.
/// Anything that does not validate — short file, foreign magic, version
/// or config-hash mismatch, checksum failure, trailing bytes — raises a
/// SnapshotError with the reason; the store turns that into "rebuild the
/// stage", never into a crash or a silent reuse of stale data.
namespace cs::snap {

/// Bump whenever any artifact codec changes shape; a mismatch rejects the
/// snapshot and forces a rebuild. v2: the dataset artifact moved to a
/// columnar (interned-name) form. v3: the dataset is written as its rows,
/// and it is the only artifact left.
inline constexpr std::uint32_t kFormatVersion = 3;

/// Raised by the reader/unframer on any malformed snapshot.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// FNV-1a over a byte span (the same hash family the fault keys use).
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept;

/// Append-only little-endian encoder.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed byte string.
  void str(std::string_view v);
  /// Element count prefix for any repeated field.
  void count(std::size_t n) { u64(n); }

  std::span<const std::uint8_t> bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked mirror of Writer; throws SnapshotError on overrun.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  bool boolean();
  std::string str();
  /// Reads an element count and rejects counts that could not possibly
  /// fit in the remaining bytes (`min_element_bytes` each) — an OOM guard
  /// against corrupted length fields.
  std::size_t count(std::size_t min_element_bytes = 1);

  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool done() const noexcept { return pos_ == bytes_.size(); }
  /// Throws if any undecoded bytes remain (payload/codec mismatch).
  void require_done() const;

 private:
  std::span<const std::uint8_t> take(std::size_t n);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Wraps a payload in the full snapshot file image (header + checksum).
std::vector<std::uint8_t> frame_snapshot(std::string_view stage,
                                         std::uint64_t config_hash,
                                         std::span<const std::uint8_t> payload);

/// Validates the framing of a whole snapshot file and returns its payload.
/// Throws SnapshotError naming the defect: truncation, bad magic, format
/// version mismatch, config-hash mismatch, stage-name mismatch, checksum
/// failure, or trailing garbage.
std::vector<std::uint8_t> unframe_snapshot(std::span<const std::uint8_t> file,
                                           std::string_view stage,
                                           std::uint64_t config_hash);

}  // namespace cs::snap
