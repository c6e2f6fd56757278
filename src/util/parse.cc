#include "util/parse.hh"

#include <array>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace geo {
namespace util {

namespace {

/** A digit at tok[at]: strtoull/strtoll would skip blanks and accept
 *  a sign (negating it, for strtoull) where the number starts. */
bool
digitAt(const std::string &tok, size_t at)
{
    return at < tok.size() &&
           std::isdigit(static_cast<unsigned char>(tok[at]));
}

/** Value of each lower-case hex digit (the only ones printf("%a")
 *  writes), -1 for any other byte. A table, because a branch per digit
 *  class mispredicts on random digits and costs several times the
 *  scan. */
constexpr std::array<int8_t, 256> kHexValue = [] {
    std::array<int8_t, 256> value{};
    value.fill(-1);
    for (int d = 0; d < 16; ++d)
        value["0123456789abcdef"[d]] = static_cast<int8_t>(d);
    return value;
}();

/**
 * The value of a C99 hexfloat in the shape printf("%a") writes for a
 * finite double, assembled from its bits: `[-]0x1(.h{1,13})?p±e` with
 * e in [-1022, 1023], `[-]0x0.h{1,13}p-1022` (subnormals) and
 * `[-]0x0p±e` (zero). Each such text is exactly representable, so this
 * is the value strtod returns, with no rounding to get right. @return
 * false for every other token: those go to strtod, so that every token
 * is accepted, rejected and valued exactly as strtod does.
 */
bool
parseCanonicalHexFloat(const std::string &tok, double &out)
{
    const char *p = tok.data();
    const char *end = p + tok.size();
    uint64_t sign = p != end && *p == '-' ? uint64_t(1) << 63 : 0;
    p += sign != 0;
    if (end - p < 6 || p[0] != '0' || p[1] != 'x' ||
        (p[2] != '0' && p[2] != '1'))
        return false;
    bool normal = p[2] == '1';
    p += 3;
    uint64_t fraction = 0;
    int digits = 0;
    if (*p == '.') {
        for (++p; p != end; ++p, ++digits) {
            int8_t value = kHexValue[static_cast<unsigned char>(*p)];
            if (value < 0)
                break;
            fraction = fraction << 4 | static_cast<uint64_t>(value);
        }
        if (digits == 0 || digits > 13)
            return false;
    }
    // `p`, a sign and one to four exponent digits.
    if (end - p < 3 || end - p > 6 || p[0] != 'p' ||
        (p[1] != '+' && p[1] != '-'))
        return false;
    bool negative = p[1] == '-';
    int exponent = 0;
    for (p += 2; p != end; ++p) {
        unsigned digit = static_cast<unsigned char>(*p) - unsigned('0');
        if (digit > 9)
            return false;
        exponent = exponent * 10 + static_cast<int>(digit);
    }
    exponent = negative ? -exponent : exponent;
    fraction <<= 4 * (13 - digits);
    uint64_t bits;
    if (normal && exponent >= -1022 && exponent <= 1023)
        bits = static_cast<uint64_t>(exponent + 1023) << 52 | fraction;
    else if (!normal && (fraction == 0 || exponent == -1022))
        bits = fraction; // zero or a subnormal
    else
        return false;
    out = std::bit_cast<double>(sign | bits);
    return true;
}

} // namespace

bool
parseDouble(const std::string &tok, double &out)
{
    if (parseCanonicalHexFloat(tok, out))
        return true;
    char *end = nullptr;
    out = std::strtod(tok.c_str(), &end);
    return !tok.empty() && *end == '\0';
}

bool
parseU64(const std::string &tok, uint64_t &out)
{
    if (!digitAt(tok, 0))
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(tok.c_str(), &end, 10);
    return errno != ERANGE && *end == '\0';
}

bool
parseI64(const std::string &tok, int64_t &out)
{
    if (!digitAt(tok, !tok.empty() && tok[0] == '-' ? 1 : 0))
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoll(tok.c_str(), &end, 10);
    return errno != ERANGE && *end == '\0';
}

} // namespace util
} // namespace geo
