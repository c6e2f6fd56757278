/**
 * @file
 * Bit-identity tests for the batched scoring path: scoreLocations()
 * assembles one feature matrix per decision cycle, but every predicted
 * value must equal a plain one-row reference bitwise — normalize with
 * the training batch's scalers, model().predict, denormalize, apply
 * the Sec. V-G adjustment, clamp — and a one-row scoreLocations call
 * for the same (file, device) pair.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/drl_engine.hh"
#include "core/interface_daemon.hh"
#include "core/replay_db.hh"
#include "util/random.hh"

namespace geo {
namespace core {
namespace {

PerfRecord
throughputRecord(storage::FileId file, storage::DeviceId device,
                 double throughput, int64_t at)
{
    PerfRecord rec;
    rec.file = file;
    rec.device = device;
    rec.rb = 1000000;
    rec.ots = at;
    rec.otms = 0;
    rec.cts = at + 2;
    rec.ctms = 0;
    rec.throughput = throughput;
    return rec;
}

/**
 * Train an engine on synthetic telemetry with real variance, 50
 * accesses per file, and keep each file's latest record.
 */
struct TrainedEngine
{
    ReplayDb db;
    InterfaceDaemon daemon;
    DrlEngine engine;
    std::vector<storage::DeviceId> devices;
    std::vector<PerfRecord> latest;

    static DaemonConfig daemonConfig()
    {
        DaemonConfig config;
        config.smoothingWindow = 1;
        return config;
    }

    static DrlConfig engineConfig()
    {
        DrlConfig config;
        config.epochs = 25;
        return config;
    }

    explicit TrainedEngine(int files = 10, int device_count = 4)
        : daemon(db, daemonConfig()), engine(engineConfig())
    {
        for (int d = 0; d < device_count; ++d)
            devices.push_back(static_cast<storage::DeviceId>(d));
        Rng rng(17);
        std::vector<PerfRecord> records;
        for (int i = 0; i < 50 * files; ++i) {
            storage::FileId file = i % files;
            storage::DeviceId device =
                static_cast<storage::DeviceId>(i % device_count);
            double throughput =
                4e5 + 2e5 * static_cast<double>(i % device_count) +
                rng.uniform(0.0, 1e5);
            records.push_back(
                throughputRecord(file, device, throughput, i * 5));
        }
        daemon.receiveBatch(records);
        RetrainStats stats =
            engine.retrain(daemon.buildTrainingBatch(devices));
        EXPECT_TRUE(stats.trained);
        EXPECT_TRUE(engine.ready());
        latest.assign(records.end() - files, records.end());
    }
};

/**
 * The reference prediction for one (file, candidate) pair, written out
 * independently of DrlEngine: the same training batch rebuilt for its
 * scalers, a one-row model().predict, and the engine's Sec. V-G
 * adjustment and clamp.
 */
double
referencePrediction(TrainedEngine &fixture, const TrainingBatch &batch,
                    const PerfRecord &latest, storage::DeviceId device)
{
    const auto raw = latest.featuresAt(device);
    nn::Matrix row(1, raw.size());
    batch.normalizeFeaturesInto(raw.data(), raw.size(), row.data().data());
    double value = batch.denormalizeTarget(
        fixture.engine.model().predict(row).at(0, 0));
    if (fixture.engine.adjustSign() != 0.0)
        value += fixture.engine.adjustSign() *
                 fixture.engine.maeFraction() * value;
    return value < 0.0 ? 0.0 : value;
}

void
expectBatchedMatchesScalar(TrainedEngine &fixture)
{
    const std::vector<storage::DeviceId> &devices = fixture.devices;
    TrainingBatch batch = fixture.daemon.buildTrainingBatch(devices);
    std::vector<std::vector<CandidateScore>> batched =
        fixture.engine.scoreLocations(fixture.latest, devices);
    ASSERT_EQ(batched.size(), fixture.latest.size());
    for (size_t f = 0; f < fixture.latest.size(); ++f) {
        ASSERT_EQ(batched[f].size(), devices.size());
        for (size_t d = 0; d < devices.size(); ++d) {
            EXPECT_EQ(batched[f][d].device, devices[d]);
            double scalar = referencePrediction(
                fixture, batch, fixture.latest[f], devices[d]);
            // Bitwise, not approximate: the batched matrix walk must
            // preserve the exact per-row arithmetic.
            EXPECT_EQ(batched[f][d].predictedThroughput, scalar)
                << "file row " << f << " device " << devices[d];
            double one_row =
                fixture.engine
                    .scoreLocations({fixture.latest[f]}, {devices[d]})[0][0]
                    .predictedThroughput;
            EXPECT_EQ(batched[f][d].predictedThroughput, one_row)
                << "file row " << f << " device " << devices[d];
        }
    }
}

TEST(BatchedScoring, MatchesScalarThroughputTarget)
{
    // 10 files x 4 devices, and a Bluesky decision cycle: 24 files x
    // 6 devices, 144 rows.
    for (auto [files, device_count] :
         {std::pair{10, 4}, std::pair{24, 6}}) {
        SCOPED_TRACE(testing::Message()
                     << files << " files x " << device_count << " devices");
        TrainedEngine fixture(files, device_count);
        expectBatchedMatchesScalar(fixture);
    }
}

TEST(BatchedScoring, EmptyInputsYieldEmptyOutputs)
{
    TrainedEngine fixture;
    EXPECT_TRUE(fixture.engine
                    .scoreLocations(std::vector<PerfRecord>{}, {0, 1})
                    .empty());
    std::vector<std::vector<CandidateScore>> no_devices =
        fixture.engine.scoreLocations(fixture.latest, {});
    ASSERT_EQ(no_devices.size(), fixture.latest.size());
    for (const std::vector<CandidateScore> &scores : no_devices)
        EXPECT_TRUE(scores.empty());
}

TEST(BatchedScoringDeathTest, PanicsBeforeRetrain)
{
    DrlEngine engine{DrlConfig{}};
    PerfRecord rec = throughputRecord(0, 0, 5e5, 10);
    EXPECT_DEATH(engine.scoreLocations({rec}, {0, 1}),
                 "before a successful retrain");
}

} // namespace
} // namespace core
} // namespace geo
