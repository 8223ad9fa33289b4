#include "codec/bitstream.hpp"

#include <bit>
#include <cstring>

namespace ff::codec {

void BitWriter::Append(std::uint64_t v, int n) {
  acc_ = (acc_ << n) | (v & ((std::uint64_t{1} << n) - 1));
  acc_bits_ += n;
  bit_count_ += static_cast<std::uint64_t>(n);
  while (acc_bits_ >= 8) {
    acc_bits_ -= 8;
    bytes_.push_back(static_cast<char>(acc_ >> acc_bits_));
  }
}

void BitWriter::PutBits(std::uint32_t v, int n) {
  FF_CHECK(n >= 0 && n <= 32);
  Append(v, n);
}

void BitWriter::PutUe(std::uint32_t v) {
  // Encode v+1 with floor(log2(v+1)) leading zeros. v = 2^32 - 1 wraps the
  // code to 0, which writes nothing.
  const std::uint32_t code = v + 1;
  const int bits = std::bit_width(code);
  if (bits == 0) return;
  if (bits <= 28) {
    Append(code, 2 * bits - 1);  // the zeros are code's own high bits
  } else {
    Append(0, bits - 1);
    Append(code, bits);
  }
}

void BitWriter::PutSe(std::int32_t v) {
  const std::uint32_t mapped =
      v > 0 ? static_cast<std::uint32_t>(2 * v - 1)
            : static_cast<std::uint32_t>(-2 * static_cast<std::int64_t>(v));
  PutUe(mapped);
}

std::string BitWriter::Finish() {
  if (acc_bits_ != 0) Append(0, 8 - acc_bits_);
  return std::move(bytes_);
}

std::uint64_t BitReader::Peek() const {
  const std::size_t byte = pos_ >> 3;
  std::uint64_t w = 0;
  if (byte + 8 <= data_.size()) {
    std::memcpy(&w, data_.data() + byte, 8);
    if constexpr (std::endian::native == std::endian::little) {
      w = __builtin_bswap64(w);
    }
  } else {
    for (std::size_t i = byte; i < data_.size(); ++i) {
      w |= std::uint64_t{static_cast<std::uint8_t>(data_[i])}
           << (56 - 8 * (i - byte));
    }
  }
  return w << (pos_ & 7);
}

void BitReader::Overrun() {
  pos_ = data_.size() * 8;
  util::FailCheck(__FILE__, __LINE__, "pos_ < data_.size() * 8",
                  "bitstream overrun");
}

std::uint32_t BitReader::GetBit() {
  if (pos_ >= data_.size() * 8) Overrun();
  const std::size_t byte = pos_ >> 3;
  const int shift = 7 - static_cast<int>(pos_ & 7);
  ++pos_;
  return (static_cast<std::uint8_t>(data_[byte]) >> shift) & 1u;
}

std::uint32_t BitReader::GetBits(int n) {
  FF_CHECK(n >= 0 && n <= 32);
  if (n == 0) return 0;
  if (static_cast<std::size_t>(n) > remaining()) Overrun();
  const auto v = static_cast<std::uint32_t>(Peek() >> (64 - n));
  pos_ += static_cast<std::size_t>(n);
  return v;
}

std::uint32_t BitReader::GetUe() {
  // The first 33 bits of the window are stream bits or zero padding, so a
  // 1 among them is the prefix's real terminator.
  const int zeros = std::countl_zero(Peek());
  if (zeros > 32) {
    // A bit-at-a-time read refuses at the 33rd zero, or at the stream's end
    // if that comes first.
    if (remaining() < 33) Overrun();
    pos_ += 33;
    util::FailCheck(__FILE__, __LINE__, "zeros <= 32",
                    "malformed Exp-Golomb code");
  }
  pos_ += static_cast<std::size_t>(zeros) + 1;
  // 1 followed by `zeros` suffix bits, minus one; a 32-bit suffix shifts the
  // leading 1 out of the 32-bit result, as a bit-at-a-time read does.
  const std::uint64_t code = (std::uint64_t{1} << zeros) | GetBits(zeros);
  return static_cast<std::uint32_t>(code) - 1;
}

std::int32_t BitReader::GetSe() {
  const std::uint32_t u = GetUe();
  if (u & 1u) return static_cast<std::int32_t>((u + 1) / 2);
  return -static_cast<std::int32_t>(u / 2);
}

}  // namespace ff::codec
