/**
 * @file
 * Tests for the DRL engine: retraining, prediction, candidate scoring.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/drl_engine.hh"
#include "nn/model_zoo.hh"
#include "util/metrics.hh"
#include "util/thread_pool.hh"

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

TEST(DrlEngine, ValidationOverflowRollsBackBitForBitOnEveryTeam)
{
    // A retrain whose validation rows overflow the loss while its
    // training rows keep the weights finite: only the per-epoch
    // validation loss is non-finite (ROADMAP item 3(a)'s open case).
    // The rows' features are finite, ~1e200, so no inf - inf turns
    // into a NaN that ReLU would zero; the squared errors overflow.
    TrainingBatch good = syntheticBatch();
    TrainingBatch poisoned = syntheticBatch();
    const nn::DataSplit rows = nn::chronologicalSplit(
        poisoned.dataset, DrlConfig::trainFraction, DrlConfig::valFraction);
    const size_t val_begin = rows.train.size();
    for (size_t r = val_begin; r < val_begin + rows.validation.size(); ++r)
        for (size_t c = 0; c < poisoned.dataset.inputs.cols(); ++c)
            poisoned.dataset.inputs(r, c) =
                ((r + c) % 3 ? 1e200 : -1e200) * static_cast<double>(c + 1);

    // The case itself: the first epoch's validation loss is not finite,
    // the weights are, and the test split looks healthy.
    {
        const nn::DataSplit split = nn::chronologicalSplit(
            poisoned.dataset, DrlConfig::trainFraction,
            DrlConfig::valFraction);
        Rng rng(5);
        nn::Sequential model = nn::buildModel(1, 6, rng);
        nn::SgdOptimizer opt(DrlConfig::learningRate, DrlConfig::clipNorm);
        nn::TrainOptions options;
        options.epochs = 3;
        options.batchSize = DrlConfig::batchSize;
        nn::TrainResult result =
            model.train(split.train, split.validation, opt, options);
        EXPECT_TRUE(result.diverged);
        ASSERT_EQ(result.trainLoss.size(), 1u);
        EXPECT_TRUE(std::isfinite(result.trainLoss[0]));
        ASSERT_EQ(result.validationLoss.size(), 1u);
        EXPECT_FALSE(std::isfinite(result.validationLoss[0]));
        for (const nn::Matrix *p : model.parameters())
            EXPECT_FALSE(p->hasNonFinite());
        EXPECT_FALSE(model.looksDiverged(split.test));
    }

    // One good retrain, then the poisoned one, which must report
    // divergence and restore the weights it started from, bit for bit.
    auto retrainTwice = [&]() {
        DrlConfig config;
        config.epochs = 3;
        DrlEngine engine(config);
        EXPECT_FALSE(engine.retrain(good).diverged);
        std::vector<nn::Matrix> before;
        for (const nn::Matrix *p : engine.model().parameters())
            before.push_back(*p);
        RetrainStats bad = engine.retrain(poisoned);
        EXPECT_TRUE(bad.trained);
        EXPECT_TRUE(bad.diverged);
        EXPECT_FALSE(engine.ready());
        const std::vector<nn::Matrix *> &after = engine.model().parameters();
        EXPECT_EQ(after.size(), before.size());
        for (size_t i = 0; i < before.size() && i < after.size(); ++i)
            EXPECT_EQ(std::memcmp(after[i]->data().data(),
                                  before[i].data().data(),
                                  before[i].size() * sizeof(double)),
                      0)
                << "parameter " << i;
        return util::MetricRegistry::global().gauge("nn.train.team").value();
    };
    // A full team on the test thread first, then a team of one on a
    // pool worker.
    util::ThreadPool &pool = util::ThreadPool::global();
    EXPECT_EQ(retrainTwice(), static_cast<double>(pool.workerCount()));
    EXPECT_EQ(pool.submit(retrainTwice).get(), 1.0);
}

} // namespace
} // namespace core
} // namespace geo
