#include "util/parse.hh"

#include <cctype>
#include <cerrno>
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

} // namespace

bool
parseDouble(const std::string &tok, double &out)
{
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
