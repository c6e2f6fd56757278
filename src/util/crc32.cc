#include "util/crc32.hh"

#include <array>

namespace geo {
namespace util {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables for the reflected polynomial: row 0 is the
 * classic byte-at-a-time table, and row s advances a byte's CRC
 * through s more zero bytes, so one step folds in 8 bytes at once.
 */
constexpr Tables
makeTables()
{
    Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t s = 1; s < t.size(); ++s)
        for (uint32_t i = 0; i < 256; ++i)
            t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    return t;
}

constexpr Tables kTables = makeTables();

/** Four bytes as a little-endian word, whatever the host's order. */
uint32_t
load32(const unsigned char *p)
{
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
           uint32_t(p[3]) << 24;
}

} // namespace

uint32_t
crc32(const void *data, size_t size, uint32_t seed)
{
    const unsigned char *bytes = static_cast<const unsigned char *>(data);
    const auto &t = kTables;
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; size >= 8; bytes += 8, size -= 8) {
        uint32_t lo = c ^ load32(bytes);
        uint32_t hi = load32(bytes + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
    }
    for (; size > 0; ++bytes, --size)
        c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

uint32_t
crc32(const std::string &data, uint32_t seed)
{
    return crc32(data.data(), data.size(), seed);
}

} // namespace util
} // namespace geo
