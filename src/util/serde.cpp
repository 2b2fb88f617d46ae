#include "util/serde.h"

#include <cstring>

#include "util/error.h"

namespace psv {

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::str(const std::string& s) {
  u64(s.size());
  raw(s.data(), s.size());
}

void ByteWriter::raw(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + size);
}

void ByteReader::need(std::size_t n) const {
  PSV_REQUIRE_AS(::psv::ErrorCode::kProtocol, n <= size_ - pos_, "truncated binary artifact: need " + std::to_string(n) +
                                     " bytes, " + std::to_string(size_ - pos_) + " left");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint32_t ByteReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

bool ByteReader::boolean() {
  const std::uint8_t v = u8();
  PSV_REQUIRE_AS(::psv::ErrorCode::kProtocol, v <= 1, "corrupt binary artifact: boolean byte " + std::to_string(v));
  return v == 1;
}

std::string ByteReader::str() {
  const std::uint64_t len = u64();
  // Compare in u64 space BEFORE narrowing: on a 32-bit size_t a huge length
  // must throw here, not truncate its way past the bounds check.
  PSV_REQUIRE_AS(::psv::ErrorCode::kProtocol, len <= remaining(), "truncated binary artifact: string length " +
                                      std::to_string(len) + " exceeds " +
                                      std::to_string(remaining()) + " remaining bytes");
  std::string out(reinterpret_cast<const char*>(data_ + pos_), static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return out;
}

void ByteReader::raw(void* out, std::size_t size) {
  need(size);
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
}

std::size_t ByteReader::length(std::size_t min_element_size) {
  const std::uint64_t n = u64();
  PSV_REQUIRE_AS(::psv::ErrorCode::kProtocol, min_element_size == 0 || n <= remaining() / min_element_size,
              "corrupt binary artifact: element count " + std::to_string(n) +
                  " exceeds the remaining payload");
  return static_cast<std::size_t>(n);
}

}  // namespace psv
