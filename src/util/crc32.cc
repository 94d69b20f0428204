#include "src/util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace hyperion {

static_assert(std::endian::native == std::endian::little,
              "Crc32's 8-byte step reads its input as a little-endian word");

namespace {

constexpr uint32_t kPoly = 0xEDB88320u;  // reflected IEEE polynomial

using Table = std::array<uint32_t, 256>;

// kTables[0] is the classic byte-at-a-time table. kTables[k][b] is the CRC
// register contribution of byte b followed by k zero bytes, so eight table
// lookups advance the register over eight input bytes at once.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr auto kTables = MakeTables();

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; size >= 8; bytes += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    word ^= crc;
    crc = kTables[7][word & 0xFFu] ^ kTables[6][(word >> 8) & 0xFFu] ^
          kTables[5][(word >> 16) & 0xFFu] ^ kTables[4][(word >> 24) & 0xFFu] ^
          kTables[3][(word >> 32) & 0xFFu] ^ kTables[2][(word >> 40) & 0xFFu] ^
          kTables[1][(word >> 48) & 0xFFu] ^ kTables[0][word >> 56];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

}  // namespace hyperion
