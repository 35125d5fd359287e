#include "src/util/crc32.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/util/bytes.h"

namespace ab::util {
namespace {

ByteBuffer bytes_of(const std::string& s) { return to_bytes(s); }

TEST(Crc32, KnownVectors) {
  // Standard CRC-32/ISO-HDLC check values.
  EXPECT_EQ(crc32(bytes_of("")), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(bytes_of("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const ByteBuffer data = bytes_of("incremental CRC computation must match one-shot");
  const std::uint32_t want = crc32(data);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    Crc32 c;
    c.update(ByteView(data).first(cut));
    c.update(ByteView(data).subspan(cut));
    EXPECT_EQ(c.value(), want) << "split at " << cut;
  }
}

TEST(Crc32, ValueIsNonDestructive) {
  Crc32 c;
  c.update(bytes_of("12345"));
  const std::uint32_t mid = c.value();
  EXPECT_EQ(mid, c.value());
  c.update(bytes_of("6789"));
  EXPECT_EQ(c.value(), 0xCBF43926u);
}

TEST(Crc32, SingleBitFlipChangesValue) {
  ByteBuffer data = bytes_of("frame body for corruption test");
  const std::uint32_t clean = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(crc32(data), clean) << "flip at byte " << i;
    data[i] ^= 0x01;
  }
}

/// The textbook bit-serial CRC-32 (reflected 0xEDB88320, init and final
/// XOR 0xFFFFFFFF): the reference the table-driven implementation must
/// match on every input.
std::uint32_t reference_crc32(ByteView data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

/// Deterministic pseudo-random bytes (a fixed LCG, so failures reproduce).
ByteBuffer pseudo_random_bytes(std::size_t n, std::uint32_t seed) {
  ByteBuffer out(n);
  std::uint32_t x = seed;
  for (std::uint8_t& b : out) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return out;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..4100 cover every residue mod 8 of the eight-byte stride
  // many times over, well past a maximum-size Ethernet frame. Each buffer
  // starts at an offset 0..7 into a larger one, chosen by len / 8 so that
  // every (length mod 8, offset) pair occurs; the word loads see every
  // alignment.
  constexpr std::size_t kMaxLen = 4100;
  const ByteBuffer pool = pseudo_random_bytes(kMaxLen + 8, 0xC0FFEEu);
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    const std::size_t start = (len / 8) % 8;
    const ByteView data = ByteView(pool).subspan(start, len);
    ASSERT_EQ(crc32(data), reference_crc32(data)) << "length " << len << " offset " << start;
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len : {std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{64},
                            std::size_t{1514}, std::size_t{4093}}) {
      const ByteView data = ByteView(pool).subspan(start, len);
      ASSERT_EQ(crc32(data), reference_crc32(data)) << "length " << len << " offset " << start;
    }
  }
}

TEST(Crc32, IncrementalSplitsMatchReferenceAtEveryResidue) {
  // Splitting a buffer at any offset leaves the second update starting
  // mid-stride; every split mod 8, and a three-way split, must still give
  // the one-shot reference value.
  const ByteBuffer data = pseudo_random_bytes(1514, 0xFCu);
  const std::uint32_t want = reference_crc32(data);
  for (std::size_t cut = 0; cut <= 64; ++cut) {
    for (std::size_t second : {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{13}}) {
      Crc32 c;
      c.update(ByteView(data).first(cut));
      c.update(ByteView(data).subspan(cut, second));
      c.update(ByteView(data).subspan(cut + second));
      ASSERT_EQ(c.value(), want) << "split at " << cut << " then " << second;
    }
  }
  for (std::size_t cut = data.size() - 16; cut <= data.size(); ++cut) {
    Crc32 c;
    c.update(ByteView(data).first(cut));
    c.update(ByteView(data).subspan(cut));
    ASSERT_EQ(c.value(), want) << "split at " << cut;
  }
}

}  // namespace
}  // namespace ab::util
