#include "src/stack/checksum.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace ab::stack {
namespace {

TEST(InternetChecksum, Rfc1071WorkedExample) {
  // RFC 1071 section 3 example: words 0x0001 0xf203 0xf4f5 0xf6f7.
  const util::ByteBuffer data = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  // Sum = 0x2ddf0 -> fold -> 0xddf2 -> complement -> 0x220d.
  EXPECT_EQ(internet_checksum(data), 0x220D);
}

TEST(InternetChecksum, ZeroBufferChecksumIsAllOnes) {
  const util::ByteBuffer data(8, 0x00);
  EXPECT_EQ(internet_checksum(data), 0xFFFF);
}

TEST(InternetChecksum, OddLengthPadsWithZero) {
  const util::ByteBuffer even = {0x12, 0x34, 0xAB, 0x00};
  const util::ByteBuffer odd = {0x12, 0x34, 0xAB};
  EXPECT_EQ(internet_checksum(even), internet_checksum(odd));
}

TEST(InternetChecksum, VerificationOfSelfChecksummedBuffer) {
  // Compute a checksum, embed it, verify the sum over the whole buffer.
  util::ByteBuffer data = {0x45, 0x00, 0x00, 0x1c, 0xab, 0xcd, 0x00, 0x00,
                           0x40, 0x11, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x01,
                           0x0a, 0x00, 0x00, 0x02};
  const std::uint16_t csum = internet_checksum(data);
  data[10] = static_cast<std::uint8_t>(csum >> 8);
  data[11] = static_cast<std::uint8_t>(csum);
  EXPECT_TRUE(checksum_ok(data));
  data[12] ^= 0x01;
  EXPECT_FALSE(checksum_ok(data));
}

TEST(InternetChecksum, IncrementalWordFeeding) {
  InternetChecksum a;
  a.update_word(0x0001);
  a.update_word(0xf203);
  a.update_word(0xf4f5);
  a.update_word(0xf6f7);
  EXPECT_EQ(a.finish(), 0x220D);
}

TEST(InternetChecksum, EmptyInput) {
  EXPECT_EQ(internet_checksum(util::ByteBuffer{}), 0xFFFF);
}

/// The RFC 1071 definition, one 16-bit word at a time: what the word-wide
/// implementation must reproduce bit for bit.
class ReferenceChecksum {
 public:
  void update(util::ByteView data) {
    std::size_t i = 0;
    for (; i + 1 < data.size(); i += 2) sum_ += (data[i] << 8) | data[i + 1];
    if (i < data.size()) sum_ += data[i] << 8;
  }
  void update_word(std::uint16_t word) { sum_ += word; }
  [[nodiscard]] std::uint16_t finish() const {
    std::uint64_t s = sum_;
    while (s >> 16) s = (s & 0xFFFF) + (s >> 16);
    return static_cast<std::uint16_t>(~s);
  }

 private:
  std::uint64_t sum_ = 0;
};

util::ByteBuffer random_bytes(std::mt19937& rng, std::size_t n) {
  util::ByteBuffer out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(InternetChecksum, MatchesSixteenBitReferenceOnRandomBuffers) {
  std::mt19937 rng(1071);
  for (std::size_t len = 0; len <= 300; ++len) {
    const util::ByteBuffer data = random_bytes(rng, len);
    ReferenceChecksum want;
    want.update(data);
    ASSERT_EQ(internet_checksum(data), want.finish()) << "length " << len;
  }
  for (std::size_t len : {1499u, 1500u, 1501u, 1502u, 9000u, 65535u}) {
    const util::ByteBuffer data = random_bytes(rng, len);
    ReferenceChecksum want;
    want.update(data);
    ASSERT_EQ(internet_checksum(data), want.finish()) << "length " << len;
  }
}

TEST(InternetChecksum, SplitUpdatesMixedWithWordsMatchReference) {
  // The stack feeds a pseudo-header word by word, then header and payload
  // blocks; every block but the last has even length, the last may be odd.
  std::mt19937 rng(793);
  for (int trial = 0; trial < 500; ++trial) {
    InternetChecksum got;
    ReferenceChecksum want;
    const int pieces = 1 + static_cast<int>(rng() % 8);
    for (int p = 0; p < pieces; ++p) {
      if (rng() % 3 == 0) {
        const auto word = static_cast<std::uint16_t>(rng());
        got.update_word(word);
        want.update_word(word);
        continue;
      }
      std::size_t len = rng() % 64;
      const bool last = p == pieces - 1;
      if (!last) len &= ~std::size_t{1};  // only the final block may be odd
      const util::ByteBuffer block = random_bytes(rng, len);
      got.update(block);
      want.update(block);
    }
    ASSERT_EQ(got.finish(), want.finish()) << "trial " << trial;
  }
}

TEST(InternetChecksum, AllOnesBufferStressesCarries) {
  // 64 KiB of 0xFF: every 16-bit word is 0xFFFF, the largest carry load
  // the fold sees. One's-complement sum of 0xFFFF words is 0xFFFF, so the
  // checksum is 0.
  const util::ByteBuffer ones(64 * 1024, 0xFF);
  ReferenceChecksum want;
  want.update(ones);
  EXPECT_EQ(want.finish(), 0x0000);
  EXPECT_EQ(internet_checksum(ones), want.finish());
  EXPECT_TRUE(checksum_ok(ones));

  // Split at every even offset within the first 32 bytes and mixed with
  // 0xFFFF words; plus the odd-length tail cases around the end.
  for (std::size_t cut = 0; cut <= 32; cut += 2) {
    InternetChecksum got;
    got.update_word(0xFFFF);
    got.update(util::ByteView(ones).first(cut));
    got.update_word(0xFFFF);
    got.update(util::ByteView(ones).subspan(cut));
    EXPECT_EQ(got.finish(), 0x0000) << "split at " << cut;
  }
  for (std::size_t len = ones.size() - 3; len <= ones.size(); ++len) {
    const util::ByteView data = util::ByteView(ones).first(len);
    ReferenceChecksum odd;
    odd.update(data);
    EXPECT_EQ(internet_checksum(data), odd.finish()) << "length " << len;
  }
}

}  // namespace
}  // namespace ab::stack
