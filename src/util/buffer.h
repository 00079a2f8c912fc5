// Network-byte-order (big-endian) serialization primitives.
//
// ByteWriter appends to a caller-owned std::vector<uint8_t>; ByteReader
// consumes a std::span<const uint8_t>. Both are bounds-checked: the writer
// grows, the reader reports truncation through ok()/fail flags so message
// decoders can parse a whole struct and check validity once at the end.
//
// The integer accessors are header-inline on purpose: they run a couple
// hundred times per simulated packet (codec + header parse/serialize), so
// each one must compile down to a bounds check plus a byteswapped load or
// store, not an out-of-line call.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace zen::util {

namespace detail {

// std::byteswap is C++23 library; not all toolchains ship it yet. The
// builtins compile to single bswap instructions on x86/ARM.
inline std::uint16_t bswap(std::uint16_t v) noexcept {
  return __builtin_bswap16(v);
}
inline std::uint32_t bswap(std::uint32_t v) noexcept {
  return __builtin_bswap32(v);
}
inline std::uint64_t bswap(std::uint64_t v) noexcept {
  return __builtin_bswap64(v);
}

}  // namespace detail

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put_be(v); }
  void u32(std::uint32_t v) { put_be(v); }
  void u64(std::uint64_t v) { put_be(v); }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void zeros(std::size_t n) { out_.insert(out_.end(), n, 0); }

  // Writes a fixed-size field from a string, padding with NUL bytes and
  // truncating if longer than `width`.
  void fixed_string(std::string_view s, std::size_t width);

  std::size_t size() const noexcept { return out_.size(); }

  // Patches a big-endian u16/u32 previously written at `offset`. Used to
  // back-fill length fields after a message body is serialized.
  void patch_u16(std::size_t offset, std::uint16_t v) {
    patch_be(offset, v);
  }
  void patch_u32(std::size_t offset, std::uint32_t v) {
    patch_be(offset, v);
  }

 private:
  template <typename T>
  void put_be(T v) {
    if constexpr (std::endian::native == std::endian::little)
      v = detail::bswap(v);
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    out_.insert(out_.end(), p, p + sizeof(T));
  }

  template <typename T>
  void patch_be(std::size_t offset, T v) {
    if constexpr (std::endian::native == std::endian::little)
      v = detail::bswap(v);
    std::memcpy(out_.data() + offset, &v, sizeof(T));
  }

  std::vector<std::uint8_t>& out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() { return get_be<std::uint16_t>(); }
  std::uint32_t u32() { return get_be<std::uint32_t>(); }
  std::uint64_t u64() { return get_be<std::uint64_t>(); }
  void bytes(std::span<std::uint8_t> out) {
    // An empty span may carry a null data(); memcpy must not see it.
    if (out.empty() || !ensure(out.size())) return;
    std::memcpy(out.data(), data_.data() + pos_, out.size());
    pos_ += out.size();
  }
  void skip(std::size_t n) {
    if (!ensure(n)) return;
    pos_ += n;
  }
  std::string fixed_string(std::size_t width);

  // Remaining unread bytes.
  std::span<const std::uint8_t> rest() const noexcept {
    return data_.subspan(pos_);
  }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }

  // True unless any read ran past the end of the buffer.
  bool ok() const noexcept { return !failed_; }

 private:
  bool ensure(std::size_t n) noexcept {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  template <typename T>
  T get_be() {
    if (!ensure(sizeof(T))) return 0;
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    if constexpr (std::endian::native == std::endian::little)
      v = detail::bswap(v);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace zen::util
