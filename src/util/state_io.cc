#include "util/state_io.hh"

#include <cstdio>
#include <istream>
#include <ostream>

#include "util/parse.hh"

namespace geo {
namespace util {

namespace {

/** Exact text form of a double (C99 hexfloat). */
std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
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
    os_ << key << ' ' << hexFloat(v) << '\n';
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
        << s.s[3] << ' ' << hexFloat(s.cachedNormal) << ' '
        << (s.hasCachedNormal ? 1 : 0) << '\n';
}

void
StateWriter::stat(const char *key, const StatAccumulator &s)
{
    StatAccumulator::State st = s.state();
    os_ << key << ' ' << st.count << ' ' << hexFloat(st.mean) << ' '
        << hexFloat(st.m2) << ' ' << hexFloat(st.min) << ' '
        << hexFloat(st.max) << '\n';
}

void
StateWriter::f64Vec(const char *key, const std::vector<double> &v)
{
    os_ << key << ' ' << v.size();
    for (double x : v)
        os_ << ' ' << hexFloat(x);
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
    std::string v(len, '\0');
    if (len > 0 && !is_.read(&v[0], static_cast<std::streamsize>(len))) {
        fail(std::string("truncated string value for '") + key + "'");
        return "";
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
    v.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        std::string tok;
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
