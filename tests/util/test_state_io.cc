/**
 * @file
 * Tests for the keyed text state serialization: every type must
 * round-trip bit-exactly, and a reader hitting unexpected keys or
 * malformed values must latch failure instead of crashing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "util/random.hh"
#include "util/state_io.hh"
#include "util/stats.hh"

namespace geo {
namespace util {
namespace {

TEST(StateIo, ScalarRoundTripIsExact)
{
    std::ostringstream os;
    StateWriter w(os);
    w.u64("a", 18446744073709551615ull);
    w.i64("b", -42);
    w.f64("c", 0.1); // not representable; must still round-trip
    w.f64("d", -1.7976931348623157e308);
    w.f64("e", 5e-324); // smallest denormal
    w.boolean("f", true);
    w.str("g", "two words\nand a newline");

    std::istringstream is(os.str());
    StateReader r(is);
    EXPECT_EQ(r.u64("a"), 18446744073709551615ull);
    EXPECT_EQ(r.i64("b"), -42);
    EXPECT_EQ(r.f64("c"), 0.1);
    EXPECT_EQ(r.f64("d"), -1.7976931348623157e308);
    EXPECT_EQ(r.f64("e"), 5e-324);
    EXPECT_TRUE(r.boolean("f"));
    EXPECT_EQ(r.str("g"), "two words\nand a newline");
    EXPECT_TRUE(r.ok());
}

TEST(StateIo, RngStateRoundTripContinuesIdentically)
{
    Rng rng(1234);
    rng.normal(0.0, 1.0); // leave a cached Box-Muller half-step
    std::ostringstream os;
    StateWriter w(os);
    w.rng("r", rng);

    Rng restored(1); // different seed; state overwritten below
    std::istringstream is(os.str());
    StateReader r(is);
    restored.setState(r.rng("r"));
    ASSERT_TRUE(r.ok());
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(rng(), restored());
        EXPECT_EQ(rng.normal(0.0, 1.0), restored.normal(0.0, 1.0));
    }
}

TEST(StateIo, StatAccumulatorRoundTrip)
{
    StatAccumulator acc;
    for (double v : {3.7, -1.0, 0.0, 99.5})
        acc.add(v);
    std::ostringstream os;
    StateWriter w(os);
    w.stat("s", acc);

    std::istringstream is(os.str());
    StateReader r(is);
    StatAccumulator restored;
    restored.restore(r.stat("s"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(restored.count(), acc.count());
    EXPECT_EQ(restored.mean(), acc.mean());
    EXPECT_EQ(restored.variance(), acc.variance());
    EXPECT_EQ(restored.min(), acc.min());
    EXPECT_EQ(restored.max(), acc.max());
}

TEST(StateIo, VectorRoundTrip)
{
    std::vector<double> v = {1.0, -0.25, 3.14159265358979, 1e-300};
    std::ostringstream os;
    StateWriter w(os);
    w.f64Vec("v", v);
    w.f64Vec("empty", {});

    std::istringstream is(os.str());
    StateReader r(is);
    EXPECT_EQ(r.f64Vec("v"), v);
    EXPECT_TRUE(r.f64Vec("empty").empty());
    EXPECT_TRUE(r.ok());
}

TEST(StateIo, KeyMismatchLatchesFailure)
{
    std::ostringstream os;
    StateWriter w(os);
    w.u64("expected", 1);
    w.u64("second", 2);

    std::istringstream is(os.str());
    StateReader r(is);
    EXPECT_EQ(r.u64("wrong"), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.error().empty());
    // Sticky: later reads return defaults even for keys that exist.
    EXPECT_EQ(r.u64("second"), 0u);
}

TEST(StateIo, TruncatedStreamFails)
{
    std::ostringstream os;
    StateWriter w(os);
    w.u64("only", 7);

    std::istringstream is(os.str());
    StateReader r(is);
    EXPECT_EQ(r.u64("only"), 7u);
    EXPECT_TRUE(r.ok());
    r.u64("missing");
    EXPECT_FALSE(r.ok());
}

// A length or count read from the state is untrusted: a hostile one
// must fail at the end of the state, not allocate itself up front.
TEST(StateIo, HostileLengthsFailCleanly)
{
    struct Case
    {
        const char *text;
        bool string;
    };
    for (Case c : {Case{"exp.series 1000000000000000000 0x1p+0\n", false},
                   Case{"exp.series 18446744073709551615\n", false},
                   Case{"exp.series 999999999999999\n", true},
                   Case{"exp.series 18446744073709551615\nabc", true}}) {
        std::istringstream is(c.text);
        StateReader r(is);
        EXPECT_NO_THROW({
            if (c.string)
                EXPECT_EQ(r.str("exp.series"), "");
            else
                EXPECT_TRUE(r.f64Vec("exp.series").empty());
        }) << c.text;
        EXPECT_FALSE(r.ok()) << c.text;
        EXPECT_FALSE(r.error().empty()) << c.text;
    }
}

TEST(StateIo, CallerValidationFailure)
{
    std::istringstream is("");
    StateReader r(is);
    r.fail("schedule size changed");
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error(), "schedule size changed");
}

} // namespace
} // namespace util
} // namespace geo
