// CRC-32 (IEEE 802.3 polynomial, reflected) used for image checksums and as
// the fast first-pass hash in content-based page sharing.
//
// Computed slicing-by-8 (Kounavis & Berry, ISCC '05): eight 256-entry
// tables consume eight input bytes per step, and a byte-at-a-time loop
// handles the tail. The result is bit-identical to the byte-wise definition
// for every buffer, length, alignment and seed, so checksums stored in
// snapshot images, disk images and translation blobs do not change.

#ifndef SRC_UTIL_CRC32_H_
#define SRC_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace hyperion {

// One-shot CRC over a buffer. `seed` allows incremental chaining:
// Crc32(b, n2, Crc32(a, n1)) == CRC of a||b.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

}  // namespace hyperion

#endif  // SRC_UTIL_CRC32_H_
