/**
 * @file
 * The snapshot codec against its references: hexfloats must print as
 * printf("%a") does, parseDouble must accept, reject and value every
 * token exactly as strtod does, and the CRC must equal the classic
 * byte-at-a-time table.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "util/crc32.hh"
#include "util/parse.hh"
#include "util/state_io.hh"

namespace geo {
namespace util {
namespace {

double
fromBits(uint64_t bits)
{
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

uint64_t
toBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

std::string
printfA(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** Doubles at the edges of every class, both signs. */
std::vector<double>
edgeValues()
{
    using limits = std::numeric_limits<double>;
    std::vector<double> out;
    for (double v :
         {0.0, limits::infinity(), limits::quiet_NaN(),
          fromBits(0x7FF0000000000001ull), // signalling NaN
          fromBits(0x7FF8DEADBEEF0001ull), // NaN with a payload
          limits::denorm_min(), fromBits(0x000FFFFFFFFFFFFFull),
          limits::min(), limits::max(), limits::epsilon(), 0.1, 0.5, 1.0,
          2.0, 3.0, 7.0, 100.0, 1e15, 9007199254740993.0, 0x1p-1022,
          0x1.8p-1073}) {
        out.push_back(v);
        out.push_back(-v);
    }
    for (int i = -1100; i <= 1100; i += 7)
        out.push_back(std::ldexp(1.0, i));
    return out;
}

/** Random bit patterns, a quarter of them subnormal. */
std::vector<double>
randomValues(size_t n, uint64_t seed)
{
    std::mt19937_64 gen(seed);
    std::vector<double> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        uint64_t bits = gen();
        if (i % 4 == 0)
            bits &= 0x800FFFFFFFFFFFFFull;
        out.push_back(fromBits(bits));
    }
    return out;
}

// --- Hexfloat formatting ------------------------------------------------

TEST(SnapshotCodec, HexFloatsPrintAsPrintfA)
{
    std::vector<double> values = edgeValues();
    std::vector<double> random = randomValues(1 << 20, 0x5eed);
    values.insert(values.end(), random.begin(), random.end());

    std::ostringstream os;
    StateWriter w(os);
    w.f64Vec("v", values);
    std::istringstream is(os.str());
    std::string key, tok;
    size_t n = 0;
    ASSERT_TRUE(is >> key >> n);
    ASSERT_EQ(n, values.size());
    size_t bad = 0;
    std::string first;
    for (double v : values) {
        ASSERT_TRUE(is >> tok);
        if (tok != printfA(v) && bad++ == 0)
            first = tok + " != " + printfA(v);
    }
    EXPECT_EQ(bad, 0u) << "first: " << first;
    EXPECT_EQ(os.str().back(), '\n');
}

TEST(SnapshotCodec, ScalarHexFloatsPrintAsPrintfA)
{
    for (double v : edgeValues()) {
        std::ostringstream os;
        StateWriter w(os);
        w.f64("k", v);
        EXPECT_EQ(os.str(), "k " + printfA(v) + "\n");
    }
    StatAccumulator s;
    s.add(-0.0);
    s.add(0.1);
    std::ostringstream os;
    StateWriter w(os);
    w.stat("s", s);
    StatAccumulator::State st = s.state();
    w.f64Vec("e", {});
    EXPECT_EQ(os.str(), "s 2 " + printfA(st.mean) + " " + printfA(st.m2) +
                            " " + printfA(st.min) + " " +
                            printfA(st.max) + "\ne 0\n");
}

// --- parseDouble against strtod ------------------------------------------

/** Checks parseDouble against strtod on one token; "" when they agree. */
std::string
disagreement(const std::string &tok)
{
    double got = 0.0;
    bool accepted = parseDouble(tok, got);
    char *end = nullptr;
    double want = std::strtod(tok.c_str(), &end);
    bool wanted = !tok.empty() && *end == '\0';
    if (accepted != wanted)
        return "'" + tok + "': accepted " + std::to_string(accepted) +
               ", strtod " + std::to_string(wanted);
    if (!accepted)
        return "";
    bool same = std::isnan(want)
                    ? std::isnan(got) &&
                          std::signbit(got) == std::signbit(want)
                    : toBits(got) == toBits(want);
    return same ? "" : "'" + tok + "': " + printfA(got) + " != " +
                           printfA(want);
}

TEST(SnapshotCodec, ParseDoubleMatchesStrtodOnEdgeTokens)
{
    for (const char *tok :
         {"0x1.4118p+-1", "0x-1p0", "+0x1p0", "0x1p", "0x.8p0", "0x1.p0",
          "1e400", "-1e400", "1e-400", "inf", "-inf", "nan", "-nan",
          "", "-", "0x", "0x1", "0x1p+", "0x1p-", "0x1p+0", "-0x0p+0",
          "0x0p+0", "0x2p+0", "0x1.8P+1", "0X1.8p+1", "0x1.8p+1 ",
          " 0x1.8p+1", "0x1.Ap+1", "0x1.ap+1", "0x1.00000000000008p+0",
          "0x1.0000000000000fp+0", "0x1p+1023", "0x1p+1024", "0x1p+99999",
          "0x1p-1074", "0x1p-1075", "0x1.8p-1075", "0x1p-99999",
          "0x0.0000000000001p-1022", "0x0.fffffffffffffp-1022",
          "0x1.fffffffffffffp+1023", "0x1p+00000", "0x1p-0001",
          "0x1.0p+0", "--0x1p+0", "0x1p++0", "0x1.8p+1x", "1.5", "-2",
          "0x1.80p+0", "0x0.8p+0", "0x0.0p+5", "0x0p-1022", "0x1p-1022",
          "0x1p-1023", "0x1.fffffffffffffp+1024", "0x1p+01023",
          "0x1.0000000000000p+0", "0x1.ffffffffffffffp+0",
          "-0x0.0000000000001p-1022", "0x0.0000000000001p-1021",
          "0x1.g p+0", "0x1.p+0", "0x1.1p+12345", "0x1.1p+"}) {
        EXPECT_EQ(disagreement(tok), "");
    }
}

/** One random mutation of `tok`: flip, insert or delete a byte. */
std::string
mutate(std::string tok, std::mt19937_64 &gen)
{
    static const std::string alphabet = "0123456789abcdefxpP+-.e nAXi";
    char c = alphabet[gen() % alphabet.size()];
    size_t at = tok.empty() ? 0 : gen() % tok.size();
    switch (gen() % 3) {
    case 0:
        if (!tok.empty())
            tok[at] = c;
        break;
    case 1:
        tok.insert(tok.begin() + static_cast<long>(at), c);
        break;
    default:
        if (!tok.empty())
            tok.erase(at, 1);
        break;
    }
    return tok;
}

TEST(SnapshotCodec, ParseDoubleMatchesStrtodOnRandomAndMutatedTokens)
{
    std::mt19937_64 gen(0xfeed);
    std::vector<double> values = randomValues(1 << 16, 0xbeef);
    std::vector<double> edges = edgeValues();
    values.insert(values.end(), edges.begin(), edges.end());
    size_t bad = 0, checked = 0;
    std::string first;
    auto check = [&](const std::string &tok) {
        ++checked;
        std::string why = disagreement(tok);
        if (!why.empty() && bad++ == 0)
            first = why;
    };
    for (double v : values) {
        char dec[64];
        std::snprintf(dec, sizeof dec, "%.17g", v);
        for (const std::string &tok : {printfA(v), std::string(dec)}) {
            check(tok);
            std::string mutated = tok;
            for (int round = 0; round < 3; ++round) {
                mutated = mutate(mutated, gen);
                check(mutated);
            }
        }
    }
    EXPECT_EQ(bad, 0u) << "of " << checked << "; first: " << first;
}

TEST(SnapshotCodec, EveryHexFloatParsesBackExactly)
{
    size_t bad = 0;
    for (double v : randomValues(1 << 19, 0xcafe)) {
        double back = 0.0;
        bool ok = parseDouble(printfA(v), back);
        if (!ok || (std::isnan(v) ? !std::isnan(back) ||
                                        std::signbit(back) != std::signbit(v)
                                  : toBits(back) != toBits(v)))
            ++bad;
    }
    EXPECT_EQ(bad, 0u);
}

// --- CRC32 against the byte-at-a-time table -------------------------------

/** The classic one-table, one-byte-per-step CRC step. */
uint32_t
referenceStep(uint32_t c, unsigned char byte)
{
    c ^= byte;
    for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    return c;
}

TEST(SnapshotCodec, Crc32MatchesByteAtATimeReference)
{
    std::mt19937_64 gen(0xc4c);
    std::vector<unsigned char> data(4096 + 8);
    for (unsigned char &b : data)
        b = static_cast<unsigned char>(gen());
    size_t bad = 0;
    std::string first;
    for (uint32_t seed : {0u, 0xCBF43926u}) {
        for (size_t offset = 0; offset < 8; ++offset) {
            // The reference runs incrementally: the state after `len`
            // bytes, finalized, is the CRC of the first `len` bytes.
            uint32_t state = seed ^ 0xFFFFFFFFu;
            for (size_t len = 0; len <= 4096; ++len) {
                uint32_t want = state ^ 0xFFFFFFFFu;
                uint32_t got = crc32(data.data() + offset, len, seed);
                if (got != want && bad++ == 0)
                    first = "seed " + std::to_string(seed) + " offset " +
                            std::to_string(offset) + " length " +
                            std::to_string(len);
                if (len < 4096)
                    state = referenceStep(state, data[offset + len]);
            }
        }
    }
    EXPECT_EQ(bad, 0u) << "first: " << first;
}

} // namespace
} // namespace util
} // namespace geo
