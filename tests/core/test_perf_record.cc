/**
 * @file
 * Tests for the PerfRecord feature vectors.
 */

#include <gtest/gtest.h>

#include "core/perf_record.hh"

namespace geo {
namespace core {
namespace {

TEST(PerfRecord, FeaturesHaveZColumns)
{
    PerfRecord rec;
    EXPECT_EQ(rec.features().size(), kLiveFeatureCount);
}

TEST(PerfRecord, FeatureOrderAndValues)
{
    PerfRecord rec;
    rec.file = 9;
    rec.device = 4;
    rec.rb = 100;
    rec.wb = 200;
    rec.ots = 10;
    rec.otms = 500;
    rec.cts = 12;
    rec.ctms = 250;
    const auto f = rec.features();
    EXPECT_DOUBLE_EQ(f[0], 100.0);   // rb
    EXPECT_DOUBLE_EQ(f[1], 200.0);   // wb
    EXPECT_DOUBLE_EQ(f[2], 10.5);    // open time
    EXPECT_DOUBLE_EQ(f[3], 12.25);   // close time
    EXPECT_DOUBLE_EQ(f[4], 9.0);     // fid
    EXPECT_DOUBLE_EQ(f[5], 4.0);     // fsid
}

TEST(PerfRecord, FeaturesAtVariesOnlyLocation)
{
    PerfRecord rec;
    rec.file = 3;
    rec.device = 1;
    rec.rb = 50;
    const auto at_current = rec.features();
    const auto at_other = rec.featuresAt(5);
    for (size_t i = 0; i + 1 < at_current.size(); ++i)
        EXPECT_DOUBLE_EQ(at_current[i], at_other[i]);
    EXPECT_DOUBLE_EQ(at_other.back(), 5.0);
    EXPECT_DOUBLE_EQ(at_current.back(), 1.0);
}

TEST(PerfRecord, FromObservationRoundTrips)
{
    storage::AccessObservation obs;
    obs.file = 7;
    obs.device = 2;
    obs.readBytes = 1000;
    obs.writtenBytes = 0;
    obs.startTime = 5.25;
    obs.endTime = 6.75;
    obs.throughput = 1000.0 / 1.5;

    PerfRecord rec = PerfRecord::fromObservation(obs);
    EXPECT_EQ(rec.file, 7u);
    EXPECT_EQ(rec.device, 2u);
    EXPECT_EQ(rec.rb, 1000u);
    EXPECT_EQ(rec.ots, 5);
    EXPECT_EQ(rec.otms, 250);
    EXPECT_EQ(rec.cts, 6);
    EXPECT_EQ(rec.ctms, 750);
    EXPECT_DOUBLE_EQ(rec.throughput, obs.throughput);
}

} // namespace
} // namespace core
} // namespace geo
