// Small versioned binary (de)serialization helpers for persistent artifacts.
//
// The encoding is deliberately dumb and stable: fixed-width little-endian
// integers (host words are copied wholesale only on little-endian hosts,
// where that is the same bytes), strings and blobs length-prefixed.
// ByteReader is fully bounds-checked — every read validates the remaining
// size and throws psv::Error on truncation or overflow, so a corrupted or
// hostile file can never read out of bounds;
// callers that must never fail (cache loaders) catch the error and fall back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/hash.h"

namespace psv {

/// Append-only little-endian byte stream builder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed string.
  void str(const std::string& s);
  void raw(const void* data, std::size_t size);

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a borrowed buffer. All reads
/// throw psv::Error on truncation; the buffer must outlive the reader.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean();
  /// Length-prefixed string; the length is validated against the remainder.
  std::string str();
  void raw(void* out, std::size_t size);
  /// Read a length prefix intended to count upcoming elements, validating it
  /// against the bytes actually remaining (each element consumes at least
  /// `min_element_size` bytes) so a corrupted count cannot drive a huge
  /// allocation.
  std::size_t length(std::size_t min_element_size);

  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace psv
