/**
 * @file
 * CRC-32 (the zlib/PNG polynomial, reflected 0xEDB88320), eight bytes
 * a step through slicing-by-8 tables.
 *
 * Used to checksum checkpoint payloads. The algorithm is deliberately
 * the standard zlib CRC-32 so external tooling (python's zlib.crc32,
 * cksum-style utilities) can validate checkpoint files without linking
 * against this code; tools/bench_smoke.sh relies on that.
 */

#ifndef GEO_UTIL_CRC32_HH
#define GEO_UTIL_CRC32_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace geo {
namespace util {

/**
 * CRC-32 of `size` bytes at `data`.
 *
 * @param seed result of a previous call, for incremental use over
 *        split buffers (0 for the first/only chunk).
 */
uint32_t crc32(const void *data, size_t size, uint32_t seed = 0);

/** Convenience overload for strings. */
uint32_t crc32(const std::string &data, uint32_t seed = 0);

} // namespace util
} // namespace geo

#endif // GEO_UTIL_CRC32_HH
