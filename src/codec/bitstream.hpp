// Bit-level I/O with Exp-Golomb coding — the entropy-coding layer of the
// codec. The written stream is a real bitstream: the decoder consumes exactly
// the bits the encoder produced (tested bit-for-bit).
//
// Both ends move whole words: the writer appends up to 56 bits per shift,
// the reader peeks a 64-bit window and finds an Exp-Golomb prefix with one
// count-leading-zeros. Values, bytes and refusals equal those of a
// bit-at-a-time coder (tests/codec_test.cpp keeps one as the reference).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/check.hpp"

namespace ff::codec {

class BitWriter {
 public:
  void PutBit(std::uint32_t b) { Append(b & 1u, 1); }
  // Writes the low `n` bits of v, most-significant first (n <= 32).
  void PutBits(std::uint32_t v, int n);
  // Unsigned Exp-Golomb.
  void PutUe(std::uint32_t v);
  // Signed Exp-Golomb (0, 1, -1, 2, -2, ... mapping).
  void PutSe(std::int32_t v);

  // Byte-aligns with zero bits and returns the buffer.
  std::string Finish();

  // Bits written so far (before alignment).
  std::uint64_t bit_count() const { return bit_count_; }

 private:
  // Appends the low n <= 56 bits of v; whole bytes go out at once.
  void Append(std::uint64_t v, int n);

  std::string bytes_;
  std::uint64_t acc_ = 0;  // pending bits in the low acc_bits_ (< 8)
  int acc_bits_ = 0;
  std::uint64_t bit_count_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::string_view data) : data_(data) {}

  std::uint32_t GetBit();
  std::uint32_t GetBits(int n);
  std::uint32_t GetUe();
  std::int32_t GetSe();

  bool exhausted() const { return pos_ >= data_.size() * 8; }

 private:
  // The bits from pos_ on, most significant first: at least 57 stream bits,
  // or zeros past the stream's end.
  std::uint64_t Peek() const;
  std::size_t remaining() const { return data_.size() * 8 - pos_; }
  // Refuses a read past the end, leaving the reader where a bit-at-a-time
  // read would stop: at the end.
  [[noreturn]] void Overrun();

  std::string_view data_;
  std::size_t pos_ = 0;  // bit position
};

}  // namespace ff::codec
