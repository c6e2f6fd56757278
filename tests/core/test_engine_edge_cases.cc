/**
 * @file
 * Edge cases of the DRL engine and its batch pipeline: constant
 * rewards, single-device systems, empty candidate lists, repeated
 * retrains over a sliding window.
 */

#include <gtest/gtest.h>

#include "core/drl_engine.hh"

namespace geo {
namespace core {
namespace {

PerfRecord
record(storage::FileId file, storage::DeviceId device, double throughput,
       int64_t at)
{
    PerfRecord rec;
    rec.file = file;
    rec.device = device;
    rec.rb = 1000000;
    rec.ots = at;
    rec.cts = at + 1;
    rec.throughput = throughput;
    return rec;
}

TrainingBatch
batchOf(const std::vector<PerfRecord> &records)
{
    ReplayDb db;
    DaemonConfig config;
    config.smoothingWindow = 1;
    InterfaceDaemon daemon(db, config);
    daemon.receiveBatch(records);
    std::vector<storage::DeviceId> devices;
    for (storage::DeviceId d = 0; d < 6; ++d)
        devices.push_back(d);
    return daemon.buildTrainingBatch(devices);
}

DrlConfig
fastConfig()
{
    DrlConfig config;
    config.epochs = 15;
    return config;
}

TEST(EngineEdgeCases, ConstantRewardHandledGracefully)
{
    // With a constant target, predicting that constant is *correct*;
    // divergence detection must not flag it (constant targets carry
    // no variation to miss) and predictions land on the constant.
    std::vector<PerfRecord> records;
    for (int i = 0; i < 200; ++i)
        records.push_back(record(i % 8, i % 3, 100.0, i));
    DrlEngine engine(fastConfig());
    RetrainStats stats = engine.retrain(batchOf(records));
    EXPECT_TRUE(stats.trained);
    EXPECT_FALSE(stats.diverged);
    ASSERT_TRUE(engine.ready());
    // The target normalizer collapses a constant column; predictions
    // denormalize back onto the constant.
    const PerfRecord &last = records.back();
    double predicted =
        engine.scoreLocations({last}, {last.device})[0][0]
            .predictedThroughput;
    EXPECT_NEAR(predicted, 100.0, 30.0);
}

TEST(EngineEdgeCases, SingleDeviceCandidateList)
{
    Rng rng(31);
    std::vector<PerfRecord> records;
    for (int i = 0; i < 300; ++i)
        records.push_back(
            record(i % 8, 0, 100.0 + rng.uniform(0.0, 50.0), i));
    DrlEngine engine(fastConfig());
    RetrainStats stats = engine.retrain(batchOf(records));
    ASSERT_TRUE(stats.trained);
    if (stats.diverged)
        GTEST_SKIP() << "model diverged on this seed";
    std::vector<CandidateScore> scores =
        engine.scoreLocations({records.back()}, {0})[0];
    ASSERT_EQ(scores.size(), 1u);
    EXPECT_EQ(scores[0].device, 0u);
    EXPECT_GE(scores[0].predictedThroughput, 0.0);
}

TEST(EngineEdgeCases, EmptyCandidateList)
{
    Rng rng(32);
    std::vector<PerfRecord> records;
    for (int i = 0; i < 300; ++i)
        records.push_back(
            record(i % 8, i % 3, 100.0 + rng.uniform(0.0, 50.0), i));
    DrlEngine engine(fastConfig());
    RetrainStats stats = engine.retrain(batchOf(records));
    ASSERT_TRUE(stats.trained);
    if (stats.diverged)
        GTEST_SKIP() << "model diverged on this seed";
    EXPECT_TRUE(engine.scoreLocations({records.back()}, {})[0].empty());
}

TEST(EngineEdgeCases, SlidingWindowRetrains)
{
    // Repeated retrains over shifting windows must keep the optimizer
    // state consistent (Adam-style shape panics would fire here).
    Rng rng(33);
    DrlEngine engine(fastConfig());
    size_t trained = 0;
    for (int window = 0; window < 5; ++window) {
        std::vector<PerfRecord> records;
        for (int i = 0; i < 200; ++i) {
            int at = window * 200 + i;
            records.push_back(record(
                i % 8, static_cast<storage::DeviceId>(i % 3),
                100.0 + 20.0 * window + rng.uniform(0.0, 30.0), at));
        }
        RetrainStats stats = engine.retrain(batchOf(records));
        trained += stats.trained && !stats.diverged ? 1 : 0;
    }
    EXPECT_GE(trained, 3u);
}

TEST(EngineEdgeCases, RetrainStatsCarryErrorMetrics)
{
    Rng rng(34);
    std::vector<PerfRecord> records;
    for (int i = 0; i < 400; ++i)
        records.push_back(record(
            i % 8, static_cast<storage::DeviceId>(i % 3),
            100.0 + 50.0 * (i % 3) + rng.uniform(0.0, 10.0), i));
    DrlEngine engine(fastConfig());
    RetrainStats stats = engine.retrain(batchOf(records));
    ASSERT_TRUE(stats.trained);
    if (stats.diverged)
        GTEST_SKIP() << "model diverged on this seed";
    EXPECT_GT(stats.meanAbsRelError, 0.0);
    EXPECT_GT(stats.samples, 0u);
    EXPECT_GT(stats.seconds, 0.0);
}

} // namespace
} // namespace core
} // namespace geo
