/**
 * @file
 * Tests for the Interface Daemon's storage and batch preparation.
 */

#include <gtest/gtest.h>

#include "core/interface_daemon.hh"

namespace geo {
namespace core {
namespace {

PerfRecord
record(storage::FileId file, storage::DeviceId device, double throughput)
{
    PerfRecord rec;
    rec.file = file;
    rec.device = device;
    rec.rb = 1000 + file * 10;
    rec.ots = static_cast<int64_t>(file);
    rec.cts = static_cast<int64_t>(file) + 1;
    rec.throughput = throughput;
    return rec;
}

TEST(InterfaceDaemon, PersistsBatches)
{
    ReplayDb db;
    InterfaceDaemon daemon(db);
    daemon.receiveBatch({record(1, 0, 10.0), record(2, 1, 20.0)});
    EXPECT_EQ(db.accessCount(), 2);
    EXPECT_EQ(daemon.batchesReceived(), 1u);
}

TEST(InterfaceDaemon, ChargesTransferOverhead)
{
    ReplayDb db;
    DaemonConfig config;
    config.batchTransferSeconds = 0.003;
    InterfaceDaemon daemon(db, config);
    daemon.receiveBatch({record(1, 0, 10.0)});
    daemon.receiveBatch({record(2, 0, 10.0)});
    EXPECT_NEAR(daemon.transferOverheadSeconds(), 0.006, 1e-12);
}

TEST(InterfaceDaemon, EmptyBatchIgnored)
{
    ReplayDb db;
    InterfaceDaemon daemon(db);
    daemon.receiveBatch({});
    EXPECT_EQ(daemon.batchesReceived(), 0u);
    EXPECT_DOUBLE_EQ(daemon.transferOverheadSeconds(), 0.0);
}

TEST(InterfaceDaemon, TrainingBatchEmptyWithoutData)
{
    ReplayDb db;
    InterfaceDaemon daemon(db);
    TrainingBatch batch = daemon.buildTrainingBatch({0, 1});
    EXPECT_TRUE(batch.dataset.empty());
}

TEST(InterfaceDaemon, TrainingBatchNormalizedAndAligned)
{
    ReplayDb db;
    DaemonConfig config;
    config.smoothingWindow = 1;
    InterfaceDaemon daemon(db, config);
    std::vector<PerfRecord> batch;
    for (int i = 0; i < 50; ++i)
        batch.push_back(record(static_cast<storage::FileId>(i), i % 2,
                               100.0 + i));
    daemon.receiveBatch(batch);

    TrainingBatch training = daemon.buildTrainingBatch({0, 1});
    EXPECT_EQ(training.dataset.size(), 50u);
    EXPECT_EQ(training.dataset.inputs.cols(), kLiveFeatureCount);
    for (double v : training.dataset.inputs.data()) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
    // Targets denormalize back to the stored throughputs.
    EXPECT_NEAR(training.denormalizeTarget(
                    training.dataset.targets.at(0, 0)),
                100.0, 1e-6);
    EXPECT_NEAR(training.denormalizeTarget(
                    training.dataset.targets.at(49, 0)),
                149.0, 1e-6);
}

TEST(InterfaceDaemon, TrainingBatchChronologicalAcrossDevices)
{
    ReplayDb db;
    DaemonConfig config;
    config.smoothingWindow = 1;
    InterfaceDaemon daemon(db, config);
    // Interleave devices; the merged batch must follow insertion order.
    daemon.receiveBatch({record(1, 0, 10.0), record(2, 1, 20.0),
                         record(3, 0, 30.0), record(4, 1, 40.0)});
    TrainingBatch training = daemon.buildTrainingBatch({0, 1});
    ASSERT_EQ(training.dataset.size(), 4u);
    for (size_t r = 0; r < 4; ++r) {
        EXPECT_NEAR(training.denormalizeTarget(
                        training.dataset.targets.at(r, 0)),
                    10.0 * static_cast<double>(r + 1), 1e-6);
    }
}

TEST(InterfaceDaemon, WindowPerDeviceLimits)
{
    ReplayDb db;
    DaemonConfig config;
    config.windowPerDevice = 5;
    config.smoothingWindow = 1;
    InterfaceDaemon daemon(db, config);
    std::vector<PerfRecord> records;
    for (int i = 0; i < 20; ++i)
        records.push_back(record(static_cast<storage::FileId>(i), 0, i));
    daemon.receiveBatch(records);
    TrainingBatch training = daemon.buildTrainingBatch({0});
    EXPECT_EQ(training.dataset.size(), 5u);
}

TEST(InterfaceDaemon, SmoothingAppliedToTargets)
{
    ReplayDb db;
    DaemonConfig smooth_config;
    smooth_config.smoothingWindow = 4;
    InterfaceDaemon daemon(db, smooth_config);
    // Alternating throughputs: smoothing pulls them toward the mean.
    std::vector<PerfRecord> records;
    for (int i = 0; i < 40; ++i)
        records.push_back(record(static_cast<storage::FileId>(i), 0,
                                 i % 2 ? 200.0 : 100.0));
    daemon.receiveBatch(records);
    TrainingBatch training = daemon.buildTrainingBatch({0});
    double last = training.denormalizeTarget(
        training.dataset.targets.at(39, 0));
    EXPECT_GT(last, 120.0);
    EXPECT_LT(last, 180.0);
}

TEST(InterfaceDaemon, NormalizeFeaturesHelper)
{
    ReplayDb db;
    InterfaceDaemon daemon(db);
    std::vector<PerfRecord> records;
    for (int i = 0; i < 30; ++i)
        records.push_back(record(static_cast<storage::FileId>(i), i % 3,
                                 100.0 + i));
    daemon.receiveBatch(records);
    TrainingBatch training = daemon.buildTrainingBatch({0, 1, 2});
    auto normalized = records[10].features();
    ASSERT_EQ(normalized.size(), kLiveFeatureCount);
    training.normalizeFeaturesInto(normalized.data(), normalized.size(),
                                   normalized.data());
    for (double v : normalized) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(InterfaceDaemonDeathTest, BadConfig)
{
    ReplayDb db;
    DaemonConfig config;
    config.windowPerDevice = 0;
    EXPECT_DEATH(InterfaceDaemon(db, config), "windowPerDevice");
}

} // namespace
} // namespace core
} // namespace geo
