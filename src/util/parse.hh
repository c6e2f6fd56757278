/**
 * @file
 * Full-token number parsing for outside input: checkpoint text, CSV
 * fields, command-line flags and environment knobs. Unlike std::stoull
 * and std::stod these never throw; they return false on an empty
 * token, trailing junk, a sign on an unsigned value or an out-of-range
 * number (`out` is then unspecified).
 */

#ifndef GEO_UTIL_PARSE_HH
#define GEO_UTIL_PARSE_HH

#include <cstdint>
#include <string>

namespace geo {
namespace util {

/** The whole token as a double, accepted, rejected and valued as
 *  strtod does (hexfloat, inf, nan); the hexfloats snapshots hold
 *  skip strtod. */
bool parseDouble(const std::string &tok, double &out);

/** The whole token as an unsigned decimal integer of up to 64 bits. */
bool parseU64(const std::string &tok, uint64_t &out);

/** Signed counterpart of parseU64 (an optional leading '-'). */
bool parseI64(const std::string &tok, int64_t &out);

} // namespace util
} // namespace geo

#endif // GEO_UTIL_PARSE_HH
