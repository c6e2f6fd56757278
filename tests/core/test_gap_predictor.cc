/**
 * @file
 * Tests for the access-gap predictor (paper Section X future work).
 */

#include <gtest/gtest.h>

#include "core/gap_predictor.hh"

namespace geo {
namespace core {
namespace {

/** Insert accesses of `file` opening every `period` s, lasting `busy`. */
void
insertPeriodic(ReplayDb &db, storage::FileId file, size_t count,
               double period, double busy, double start = 0.0)
{
    for (size_t i = 0; i < count; ++i) {
        PerfRecord rec;
        rec.file = file;
        rec.device = 0;
        rec.rb = 1000;
        double open_time = start + static_cast<double>(i) * period;
        rec.ots = static_cast<int64_t>(open_time);
        rec.otms = 0;
        rec.cts = static_cast<int64_t>(open_time + busy);
        rec.ctms = 0;
        rec.throughput = 1000.0 / busy;
        db.insertAccess(rec);
    }
}

TEST(GapPredictor, NoHistoryNoPrediction)
{
    ReplayDb db;
    GapPredictor predictor(db);
    EXPECT_FALSE(predictor.predict(42).has_value());
}

TEST(GapPredictor, TooFewSamplesNoPrediction)
{
    ReplayDb db;
    insertPeriodic(db, 1, 3, 10.0, 1.0); // only 2 gaps, 4 needed
    GapPredictor predictor(db);
    EXPECT_FALSE(predictor.predict(1).has_value());
}

TEST(GapPredictor, PeriodicAccessGap)
{
    ReplayDb db;
    // Opens every 10 s, busy for 1 s: gaps of 9 s.
    insertPeriodic(db, 1, 20, 10.0, 1.0);
    GapPredictor predictor(db);
    auto prediction = predictor.predict(1);
    ASSERT_TRUE(prediction.has_value());
    EXPECT_NEAR(prediction->expectedGapSeconds, 9.0, 0.01);
    EXPECT_NEAR(prediction->shortestRecentGap, 9.0, 0.01);
    EXPECT_EQ(prediction->samples, 19u);
}

TEST(GapPredictor, RecentBehaviorDominates)
{
    ReplayDb db;
    // Old: sparse accesses (gaps 99 s); recent: dense (gaps 1 s).
    insertPeriodic(db, 1, 10, 100.0, 1.0, 0.0);
    insertPeriodic(db, 1, 30, 2.0, 1.0, 2000.0);
    GapPredictor predictor(db);
    auto prediction = predictor.predict(1);
    ASSERT_TRUE(prediction.has_value());
    EXPECT_LT(prediction->expectedGapSeconds, 10.0)
        << "EWMA should track the recent dense phase";
}

TEST(GapPredictor, OverlappingAccessesClampToZero)
{
    ReplayDb db;
    // Accesses that overlap (close after the next open).
    insertPeriodic(db, 1, 10, 1.0, 5.0);
    GapPredictor predictor(db);
    auto prediction = predictor.predict(1);
    ASSERT_TRUE(prediction.has_value());
    EXPECT_DOUBLE_EQ(prediction->expectedGapSeconds, 0.0);
}

TEST(GapPredictor, FitsInGapDecisions)
{
    ReplayDb db;
    insertPeriodic(db, 1, 20, 10.0, 1.0); // gaps of 9 s
    GapPredictor predictor(db);
    // A move fits when kGapSafetyFactor times its transfer does.
    EXPECT_TRUE(predictor.fitsInGap(1, 2.0));  // 3 s < 9 s
    EXPECT_TRUE(predictor.fitsInGap(1, 9.0 / kGapSafetyFactor));
    EXPECT_FALSE(predictor.fitsInGap(1, 7.0)); // 10.5 s > 9 s
    EXPECT_FALSE(predictor.fitsInGap(1, 8.0)); // 12 s > 9 s
}

TEST(GapPredictor, UnknownFileAlwaysFits)
{
    ReplayDb db;
    GapPredictor predictor(db);
    EXPECT_TRUE(predictor.fitsInGap(999, 1e9));
}

} // namespace
} // namespace core
} // namespace geo
