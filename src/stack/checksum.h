// RFC 1071 Internet checksum: the one's-complement sum used by IPv4, ICMP,
// and UDP headers in the minimal stack.
#pragma once

#include <cstdint>

#include "src/util/bytes.h"

namespace ab::stack {

/// Incremental one's-complement 16-bit sum. Sections may be fed in any
/// 16-bit-aligned chunks; an odd final byte is padded with zero.
class InternetChecksum {
 public:
  /// Adds a block of bytes. Blocks of odd length may only be added last
  /// (the trailing byte is padded, closing the sum for further odd joins);
  /// this matches how the stack uses it (pseudo-header then payload).
  void update(util::ByteView data);

  /// Adds one 16-bit word in host order (for pseudo-header fields).
  void update_word(std::uint16_t word);

  /// Final checksum: the one's complement of the running sum.
  [[nodiscard]] std::uint16_t finish() const;

 private:
  std::uint64_t sum_ = 0;  ///< unfolded; finish() folds the carries
};

/// One-shot checksum over a buffer.
[[nodiscard]] std::uint16_t internet_checksum(util::ByteView data);

/// Verifies a buffer whose checksum field is included: the sum over the
/// whole buffer must be zero (i.e. finish() == 0).
[[nodiscard]] bool checksum_ok(util::ByteView data);

}  // namespace ab::stack
