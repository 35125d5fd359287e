#include "src/stack/checksum.h"

namespace ab::stack {

void InternetChecksum::update(util::ByteView data) {
  // RFC 1071 section 2: a one's-complement sum of 32-bit words folds to the
  // same 16-bit sum as the 16-bit words it is made of (2^16 == 1 modulo
  // 2^16 - 1), so sum big-endian 32-bit words into the 64-bit accumulator
  // and fold once in finish(). It cannot overflow before 2^32 words.
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint64_t sum = sum_;
  for (; n >= 4; p += 4, n -= 4) {
    sum += (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
  }
  if (n >= 2) {
    sum += static_cast<std::uint32_t>((p[0] << 8) | p[1]);
    p += 2;
    n -= 2;
  }
  if (n == 1) sum += static_cast<std::uint32_t>(p[0] << 8);
  sum_ = sum;
}

void InternetChecksum::update_word(std::uint16_t word) { sum_ += word; }

std::uint16_t InternetChecksum::finish() const {
  std::uint64_t s = sum_;
  while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
  return static_cast<std::uint16_t>(~s);
}

std::uint16_t internet_checksum(util::ByteView data) {
  InternetChecksum c;
  c.update(data);
  return c.finish();
}

bool checksum_ok(util::ByteView data) { return internet_checksum(data) == 0; }

}  // namespace ab::stack
