/**
 * @file
 * Tests for the DRL engine: retraining, prediction, candidate scoring.
 */

#include <gtest/gtest.h>

#include "core/drl_engine.hh"

namespace geo {
namespace core {
namespace {

/**
 * A ReplayDB-like training batch with a learnable rule: device 2 is
 * twice as fast as device 0, device 1 in between.
 */
TrainingBatch
syntheticBatch(size_t n = 600)
{
    ReplayDb db;
    DaemonConfig config;
    config.smoothingWindow = 1;
    InterfaceDaemon daemon(db, config);
    Rng rng(404);
    std::vector<PerfRecord> records;
    for (size_t i = 0; i < n; ++i) {
        PerfRecord rec;
        rec.file = i % 8;
        rec.device = static_cast<storage::DeviceId>(i % 3);
        rec.rb = 1000000 + (i % 50) * 1000;
        rec.ots = static_cast<int64_t>(i);
        rec.cts = static_cast<int64_t>(i) + 1;
        double base = 100.0 + 100.0 * static_cast<double>(rec.device);
        rec.throughput = base + rng.normal(0.0, 5.0);
        records.push_back(rec);
    }
    daemon.receiveBatch(records);
    return daemon.buildTrainingBatch({0, 1, 2});
}

DrlConfig
fastConfig()
{
    DrlConfig config;
    config.epochs = 60;
    config.learningRate = 0.1;
    return config;
}

TEST(DrlEngine, NotReadyBeforeRetrain)
{
    DrlEngine engine(fastConfig());
    EXPECT_FALSE(engine.ready());
    EXPECT_DEATH(engine.scoreLocations({PerfRecord{}}, {0}), "before");
}

TEST(DrlEngine, RetrainSkipsTinyBatches)
{
    DrlEngine engine(fastConfig());
    TrainingBatch tiny;
    RetrainStats stats = engine.retrain(tiny);
    EXPECT_FALSE(stats.trained);
    EXPECT_FALSE(engine.ready());
}

TEST(DrlEngine, RetrainLearnsDeviceOrdering)
{
    DrlEngine engine(fastConfig());
    TrainingBatch batch = syntheticBatch();
    RetrainStats stats = engine.retrain(batch);
    ASSERT_TRUE(stats.trained);
    ASSERT_FALSE(stats.diverged);
    EXPECT_TRUE(engine.ready());
    EXPECT_GT(stats.seconds, 0.0);
    EXPECT_LT(stats.meanAbsRelError, 40.0);

    // Candidate scoring must prefer the fast device for the same
    // access pattern.
    PerfRecord probe;
    probe.file = 3;
    probe.device = 0;
    probe.rb = 1010000;
    probe.ots = 300;
    probe.cts = 301;
    std::vector<CandidateScore> scores =
        engine.scoreLocations({probe}, {0, 1, 2})[0];
    ASSERT_EQ(scores.size(), 3u);
    EXPECT_GT(scores[2].predictedThroughput,
              scores[0].predictedThroughput);
}

TEST(DrlEngine, PredictionsArePositiveThroughputs)
{
    DrlEngine engine(fastConfig());
    TrainingBatch batch = syntheticBatch();
    engine.retrain(batch);
    PerfRecord probe;
    probe.file = 1;
    probe.device = 1;
    probe.rb = 1000000;
    probe.ots = 10;
    probe.cts = 11;
    std::vector<std::vector<CandidateScore>> scores =
        engine.scoreLocations({probe}, {0, 1, 2});
    for (const CandidateScore &score : scores[0]) {
        EXPECT_GE(score.predictedThroughput, 0.0);
        // Plausible range given targets 100-300.
        EXPECT_LT(score.predictedThroughput, 1e4);
    }
}

TEST(DrlEngine, ScoreCandidatesTracksDevices)
{
    DrlEngine engine(fastConfig());
    engine.retrain(syntheticBatch());
    PerfRecord probe;
    probe.rb = 1000000;
    probe.ots = 5;
    probe.cts = 6;
    std::vector<CandidateScore> scores =
        engine.scoreLocations({probe}, {2, 0})[0];
    ASSERT_EQ(scores.size(), 2u);
    EXPECT_EQ(scores[0].device, 2u);
    EXPECT_EQ(scores[1].device, 0u);
    EXPECT_GE(engine.lastPredictionMillis(), 0.0);
}

TEST(DrlEngine, MaeAdjustmentCanBeDisabled)
{
    DrlConfig with = fastConfig();
    DrlConfig without = fastConfig();
    without.adjustWithMae = false;
    DrlEngine engine_with(with);
    DrlEngine engine_without(without);
    TrainingBatch batch = syntheticBatch();
    engine_with.retrain(batch);
    engine_without.retrain(batch);
    // Same seed/model/data: the only difference is the adjustment.
    PerfRecord probe;
    probe.rb = 1000000;
    probe.ots = 5;
    probe.cts = 6;
    double adjusted =
        engine_with.scoreLocations({probe}, {1})[0][0].predictedThroughput;
    double raw = engine_without.scoreLocations({probe}, {1})[0][0]
                     .predictedThroughput;
    EXPECT_NE(adjusted, raw);
}

TEST(DrlEngine, RepeatedRetrainImproves)
{
    DrlEngine engine(fastConfig());
    TrainingBatch batch = syntheticBatch();
    RetrainStats first = engine.retrain(batch);
    RetrainStats second = engine.retrain(batch);
    ASSERT_TRUE(first.trained);
    ASSERT_TRUE(second.trained);
    EXPECT_LE(second.meanAbsRelError, first.meanAbsRelError * 1.5);
}

TEST(DrlEngineDeathTest, RecurrentModelRejected)
{
    DrlConfig config;
    config.modelNumber = 12; // LSTM
    EXPECT_DEATH(DrlEngine{config}, "dense");
}

} // namespace
} // namespace core
} // namespace geo
