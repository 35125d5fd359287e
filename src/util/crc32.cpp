#include "src/util/crc32.h"

#include <array>
#include <cstddef>

namespace ab::util {
namespace {

/// Slicing-by-8 tables: kTables[0] is the classic byte-wise table, and
/// kTables[k][i] is the CRC of byte i followed by k zero bytes, so eight
/// lookups (one per table) advance the CRC over eight bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < t.size(); ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

// Built at compile time: constant-initialized, so the per-byte loop never
// re-checks a function-local static's guard and any static initializer
// elsewhere may already compute CRCs.
constexpr Tables kTables = make_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void Crc32::update(ByteView data) {
  std::uint32_t c = state_;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    // The reflected CRC consumes bytes least-significant first, so the low
    // word folds into the running state and the high word only indexes.
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

std::uint32_t crc32(ByteView data) {
  Crc32 c;
  c.update(data);
  return c.value();
}

}  // namespace ab::util
