#include "kgacc/util/codec.h"

#include <array>

namespace kgacc {

namespace {

using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected Castagnoli polynomial: `t[0]` is
/// the byte-at-a-time table, and `t[k][b]` is the CRC of byte `b` followed
/// by k zero bytes, so eight table lookups fold eight input bytes at once.
/// Built at compile time; 8 KB, shared process-wide.
constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Crc32cTables kCrc32cTables = MakeCrc32cTables();

/// Little-endian load by bytes: the same value on any host byte order, and
/// a single load where the compiler can prove the order.
inline uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  const Crc32cTables& t = kCrc32cTables;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace kgacc
