#include "util/state_io.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>

#include "util/parse.hh"

namespace geo {
namespace util {

namespace {

/** Room for one hexFloat() text; the longest is 24 bytes
 *  ("-0x1.fffffffffffffp-1022"). */
constexpr size_t kHexFloatChars = 32;

/**
 * Writes the exact text of `v` (a C99 hexfloat) at `out`, which has
 * kHexFloatChars bytes, and returns its end. The text is glibc's
 * printf("%a"): `0x1.<fraction>p<exponent>` for normal numbers and
 * `0x0.<fraction>p-1022` for subnormals, the fraction's trailing zeros
 * (and then its point) dropped; inf and nan carry no prefix. It is
 * written out because std::to_chars(hex) prints subnormals in a form
 * that differs between libstdc++ releases.
 */
char *
hexFloat(char *out, double v)
{
    constexpr uint64_t kFractionMask = (uint64_t(1) << 52) - 1;
    uint64_t bits = std::bit_cast<uint64_t>(v);
    int biased = static_cast<int>(bits >> 52 & 0x7FF);
    uint64_t fraction = bits & kFractionMask;
    if (bits >> 63)
        *out++ = '-';
    if (biased == 0x7FF) {
        std::memcpy(out, fraction ? "nan" : "inf", 3);
        return out + 3;
    }
    int exponent = biased ? biased - 1023 : fraction ? -1022 : 0;
    *out++ = '0';
    *out++ = 'x';
    *out++ = biased ? '1' : '0';
    if (fraction) {
        *out++ = '.';
        for (; fraction; fraction = fraction << 4 & kFractionMask)
            *out++ = "0123456789abcdef"[fraction >> 48];
    }
    *out++ = 'p';
    *out++ = exponent < 0 ? '-' : '+';
    return std::to_chars(out, out + 4, std::abs(exponent)).ptr;
}

/** Streams one hexFloat() text. */
struct HexFloat
{
    double v;
};

std::ostream &
operator<<(std::ostream &os, HexFloat h)
{
    char buf[kHexFloatChars];
    return os.write(buf, hexFloat(buf, h.v) - buf);
}

/** Elements a count read from the state may always reserve up front. */
constexpr size_t kReserveCap = size_t(1) << 16;

/**
 * Up-front room for `count` elements still to be read from `is`, each
 * at least `width` bytes of text: no more than the stream's buffer
 * still holds (all the rest of an istringstream), and at least
 * kReserveCap. A hostile count thus reserves no more than the text
 * could hold, the rest only as elements arrive; an honest one is
 * allocated once.
 */
size_t
untrustedRoom(std::istream &is, size_t count, size_t width)
{
    std::streamsize avail = is.rdbuf()->in_avail();
    size_t fits = avail > 0 ? static_cast<size_t>(avail) / width : 0;
    return std::min(count, std::max(fits, kReserveCap));
}

} // namespace

void
StateWriter::u64(const char *key, uint64_t v)
{
    os_ << key << ' ' << v << '\n';
}

void
StateWriter::i64(const char *key, int64_t v)
{
    os_ << key << ' ' << v << '\n';
}

void
StateWriter::f64(const char *key, double v)
{
    os_ << key << ' ' << HexFloat{v} << '\n';
}

void
StateWriter::boolean(const char *key, bool v)
{
    os_ << key << ' ' << (v ? 1 : 0) << '\n';
}

void
StateWriter::str(const char *key, const std::string &v)
{
    // Length prefix, then the raw bytes: values may contain anything.
    os_ << key << ' ' << v.size() << '\n';
    os_.write(v.data(), static_cast<std::streamsize>(v.size()));
    os_ << '\n';
}

void
StateWriter::rng(const char *key, const Rng &r)
{
    Rng::State s = r.state();
    os_ << key << ' ' << s.s[0] << ' ' << s.s[1] << ' ' << s.s[2] << ' '
        << s.s[3] << ' ' << HexFloat{s.cachedNormal} << ' '
        << (s.hasCachedNormal ? 1 : 0) << '\n';
}

void
StateWriter::stat(const char *key, const StatAccumulator &s)
{
    StatAccumulator::State st = s.state();
    os_ << key << ' ' << st.count << ' ' << HexFloat{st.mean} << ' '
        << HexFloat{st.m2} << ' ' << HexFloat{st.min} << ' '
        << HexFloat{st.max} << '\n';
}

void
StateWriter::f64Vec(const char *key, const std::vector<double> &v)
{
    os_ << key << ' ' << v.size();
    // Format into a bounded buffer: exp.series runs to megabytes.
    char buf[4096];
    char *at = buf;
    for (double x : v) {
        if (static_cast<size_t>(buf + sizeof buf - at) < 1 + kHexFloatChars) {
            os_.write(buf, at - buf);
            at = buf;
        }
        *at++ = ' ';
        at = hexFloat(at, x);
    }
    os_.write(buf, at - buf);
    os_ << '\n';
}

void
StateReader::fail(const std::string &why)
{
    if (ok_) {
        ok_ = false;
        error_ = why;
    }
}

bool
StateReader::expectKey(const char *key)
{
    if (!ok_)
        return false;
    std::string tok;
    if (!(is_ >> tok)) {
        fail(std::string("unexpected end of state (wanted key '") + key +
             "')");
        return false;
    }
    if (tok != key) {
        fail(std::string("state key mismatch: wanted '") + key +
             "', found '" + tok + "'");
        return false;
    }
    return true;
}

uint64_t
StateReader::u64(const char *key)
{
    if (!expectKey(key))
        return 0;
    uint64_t v = 0;
    if (!(is_ >> v)) {
        fail(std::string("bad u64 value for '") + key + "'");
        return 0;
    }
    return v;
}

int64_t
StateReader::i64(const char *key)
{
    if (!expectKey(key))
        return 0;
    int64_t v = 0;
    if (!(is_ >> v)) {
        fail(std::string("bad i64 value for '") + key + "'");
        return 0;
    }
    return v;
}

double
StateReader::f64(const char *key)
{
    if (!expectKey(key))
        return 0.0;
    std::string tok;
    double v = 0.0;
    if (!(is_ >> tok) || !parseDouble(tok, v)) {
        fail(std::string("bad f64 value for '") + key + "'");
        return 0.0;
    }
    return v;
}

bool
StateReader::boolean(const char *key)
{
    return u64(key) != 0;
}

std::string
StateReader::str(const char *key)
{
    if (!expectKey(key))
        return "";
    size_t len = 0;
    if (!(is_ >> len)) {
        fail(std::string("bad string length for '") + key + "'");
        return "";
    }
    is_.get(); // the newline after the length
    // Fill what the stream can hold, then read in bounded chunks: a
    // hostile length fails at the end of the state.
    std::string v;
    v.reserve(untrustedRoom(is_, len, 1));
    while (v.size() < len) {
        size_t have = v.size();
        size_t chunk =
            std::min(len - have, std::max(v.capacity() - have, kReserveCap));
        v.resize(have + chunk);
        if (!is_.read(&v[have], static_cast<std::streamsize>(chunk))) {
            fail(std::string("truncated string value for '") + key + "'");
            return "";
        }
    }
    return v;
}

Rng::State
StateReader::rng(const char *key)
{
    Rng::State s;
    if (!expectKey(key))
        return s;
    std::string cached;
    int hasCached = 0;
    if (!(is_ >> s.s[0] >> s.s[1] >> s.s[2] >> s.s[3] >> cached >>
          hasCached) ||
        !parseDouble(cached, s.cachedNormal)) {
        fail(std::string("bad rng state for '") + key + "'");
        return Rng::State{};
    }
    s.hasCachedNormal = hasCached != 0;
    return s;
}

StatAccumulator::State
StateReader::stat(const char *key)
{
    StatAccumulator::State st;
    if (!expectKey(key))
        return st;
    std::string mean, m2, min, max;
    if (!(is_ >> st.count >> mean >> m2 >> min >> max) ||
        !parseDouble(mean, st.mean) || !parseDouble(m2, st.m2) ||
        !parseDouble(min, st.min) || !parseDouble(max, st.max)) {
        fail(std::string("bad stat state for '") + key + "'");
        return StatAccumulator::State{};
    }
    return st;
}

std::vector<double>
StateReader::f64Vec(const char *key)
{
    std::vector<double> v;
    if (!expectKey(key))
        return v;
    size_t n = 0;
    if (!(is_ >> n)) {
        fail(std::string("bad vector length for '") + key + "'");
        return v;
    }
    v.reserve(untrustedRoom(is_, n, 2));
    std::string tok;
    for (size_t i = 0; i < n; ++i) {
        double x = 0.0;
        if (!(is_ >> tok) || !parseDouble(tok, x)) {
            fail(std::string("bad vector element for '") + key + "'");
            v.clear();
            return v;
        }
        v.push_back(x);
    }
    return v;
}

} // namespace util
} // namespace geo
