/**
 * @file
 * Crash-recovery hardening tests: restorePending() idempotency, the
 * ReplayDB's tolerance of corrupt on-disk files, watermark rewind
 * row-id reuse, and the DRL engine's divergence guard + rollback.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/control_agent.hh"
#include "core/drl_engine.hh"
#include "core/replay_db.hh"
#include "storage/bluesky.hh"
#include "storage/fault_injector.hh"
#include "util/metrics.hh"

namespace geo {
namespace core {
namespace {

storage::FaultEvent
outage(storage::DeviceId device, double start, double duration)
{
    storage::FaultEvent ev;
    ev.device = device;
    ev.kind = storage::FaultKind::Outage;
    ev.start = start;
    ev.duration = duration;
    return ev;
}

struct Fixture
{
    std::unique_ptr<storage::StorageSystem> system =
        storage::makeBlueskySystem();
    storage::FaultInjector injector{*system, {}};
    ReplayDb db;
    storage::FileId file;

    Fixture()
    {
        system->attachFaultInjector(&injector);
        file = system->addFile("f", 4 << 20, 0);
    }
};

/** Seed of the control agent's backoff jitter. */
constexpr uint64_t kSeed = 17;

TEST(CrashRecovery, RestorePendingIsIdempotent)
{
    Fixture fx;
    fx.injector.addEvent(outage(3, 0.0, 30.0));
    {
        ControlAgent agent(*fx.system, &fx.db, kSeed);
        agent.apply({{fx.file, 3}});
        EXPECT_EQ(agent.pendingRetries(), 1u);
    } // crash: the in-memory queue dies with the agent

    ControlAgent revived(*fx.system, &fx.db, kSeed);
    EXPECT_EQ(revived.restorePending(), 1u);
    // A second call (e.g. checkpoint restore followed by the safety
    // net) must not double-queue the same retry.
    EXPECT_EQ(revived.restorePending(), 0u);
    EXPECT_EQ(revived.pendingRetries(), 1u);
}

TEST(CrashRecovery, RestorePendingIgnoresCompletedMoves)
{
    Fixture fx;
    fx.injector.addEvent(outage(3, 0.0, 15.0));
    {
        ControlAgent agent(*fx.system, &fx.db, kSeed);
        agent.apply({{fx.file, 3}});
        // The retry completes after the outage: last outcome Applied.
        fx.system->clock().advance(
            kBackoffBaseSeconds * (1.0 + kBackoffJitter) + 1.0);
        agent.apply({});
        EXPECT_EQ(fx.system->location(fx.file), 3u);
    }
    ControlAgent revived(*fx.system, &fx.db, kSeed);
    EXPECT_EQ(revived.restorePending(), 0u);
    EXPECT_EQ(revived.pendingRetries(), 0u);
}

TEST(CrashRecovery, RestorePendingSkipsSupersededRetries)
{
    Fixture fx;
    fx.injector.addEvent(outage(3, 0.0, 0.0)); // permanent
    {
        ControlAgent agent(*fx.system, &fx.db, kSeed);
        agent.apply({{fx.file, 3}});
        EXPECT_EQ(agent.pendingRetries(), 1u);
        // The model changed its mind; the old retry is superseded and
        // logged as such.
        MoveSummary summary = agent.apply({{fx.file, 1}});
        EXPECT_EQ(summary.applied, 1u);
        EXPECT_EQ(agent.pendingRetries(), 0u);
    }
    // A restarted agent must not resurrect the superseded retry and
    // drag the file back toward the dead device.
    ControlAgent revived(*fx.system, &fx.db, kSeed);
    EXPECT_EQ(revived.restorePending(), 0u);
    EXPECT_EQ(fx.system->location(fx.file), 1u);
}

TEST(CrashRecovery, ReplayDbSurvivesBitFlippedFile)
{
    namespace fs = std::filesystem;
    std::string path =
        (fs::temp_directory_path() / "geo_test_replay_bitflip.db").string();
    fs::remove(path);
    {
        ReplayDb db(path);
        // Enough rows that the file spans several pages and a flip in
        // the middle lands in record data.
        std::vector<PerfRecord> records;
        for (int i = 0; i < 2000; ++i) {
            PerfRecord rec;
            rec.file = static_cast<storage::FileId>(i % 16);
            rec.device = static_cast<storage::DeviceId>(i % 4);
            rec.rb = 1000000 + static_cast<uint64_t>(i);
            rec.ots = i;
            rec.cts = i + 1;
            rec.throughput = 100.0 + i;
            records.push_back(rec);
        }
        db.insertAccesses(records);
        EXPECT_FALSE(db.openedCorrupt());
    }

    // Flip a run of bytes in the middle of the database file.
    {
        std::fstream f(path, std::ios::binary | std::ios::in |
                                 std::ios::out);
        ASSERT_TRUE(f.good());
        f.seekg(0, std::ios::end);
        auto size = static_cast<std::streamoff>(f.tellg());
        ASSERT_GT(size, 4096);
        f.seekp(size / 2);
        std::string garbage(64, '\xa5');
        f.write(garbage.data(),
                static_cast<std::streamsize>(garbage.size()));
    }

    auto &corrupt =
        util::MetricRegistry::global().counter("replaydb.open.corrupt");
    uint64_t before = corrupt.value();
    ReplayDb reopened(path);
    EXPECT_TRUE(reopened.openedCorrupt());
    EXPECT_GT(corrupt.value(), before);
    // The fallback is an empty in-memory store that still works.
    EXPECT_EQ(reopened.accessCount(), 0);
    PerfRecord rec;
    rec.file = 1;
    rec.device = 2;
    rec.throughput = 42.0;
    reopened.insertAccesses({rec});
    EXPECT_EQ(reopened.watermark().accesses, 1);
    fs::remove(path);
}

TEST(CrashRecovery, RewindReassignsIdenticalRowIds)
{
    ReplayDb db;
    PerfRecord rec;
    rec.file = 1;
    rec.device = 0;
    rec.throughput = 100.0;
    db.insertAccesses({rec, rec, rec});
    MovementRecord move;
    move.file = 1;
    move.toDevice = 2;
    db.insertMovement(move);
    ReplayDbWatermark wm = db.watermark();
    EXPECT_EQ(wm.accesses, 3);
    EXPECT_EQ(wm.movements, 1);

    // A crashed process appended past the cut...
    db.insertAccesses({rec});
    EXPECT_EQ(db.watermark().accesses, 4);
    db.insertMovement(move);

    // ...and the rewind discards it so the resumed run's inserts land
    // on the exact ids the uninterrupted run would have used.
    db.rewindTo(wm);
    EXPECT_EQ(db.accessCount(), 3);
    EXPECT_EQ(db.recentMovements(2).size(), 1u);
    db.insertAccesses({rec});
    EXPECT_EQ(db.watermark().accesses, 4);
    EXPECT_EQ(db.insertMovement(move), 2);
}

TEST(CrashRecovery, RewindToEmptyWatermarkClearsEverything)
{
    ReplayDb db;
    PerfRecord rec;
    rec.file = 1;
    rec.throughput = 1.0;
    db.insertAccesses({rec});
    db.rewindTo({});
    EXPECT_EQ(db.accessCount(), 0);
    db.insertAccesses({rec});
    EXPECT_EQ(db.watermark().accesses, 1); // sequence reset too
}

// ---------------------------------------------------------------------
// DRL divergence guard: a poisoned batch must not leave NaN weights
// in charge of placement decisions.

TrainingBatch
syntheticBatch()
{
    ReplayDb db;
    DaemonConfig config;
    config.smoothingWindow = 1;
    InterfaceDaemon daemon(db, config);
    Rng rng(404);
    std::vector<PerfRecord> records;
    for (size_t i = 0; i < 600; ++i) {
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

TEST(CrashRecovery, DivergedRetrainRollsBackToLastGoodWeights)
{
    DrlConfig config;
    config.epochs = 60;
    DrlEngine engine(config);

    TrainingBatch good = syntheticBatch();
    RetrainStats first = engine.retrain(good);
    ASSERT_TRUE(first.trained);
    ASSERT_FALSE(first.diverged);
    ASSERT_TRUE(engine.ready());

    TrainingBatch poisoned = syntheticBatch();
    for (size_t r = 0; r < poisoned.dataset.targets.rows(); ++r)
        poisoned.dataset.targets(r, 0) =
            std::numeric_limits<double>::quiet_NaN();

    auto &registry = util::MetricRegistry::global();
    uint64_t diverged_before =
        registry.counter("drl.train.diverged").value();
    uint64_t rollbacks_before =
        registry.counter("drl.train.rollbacks").value();
    std::vector<nn::Matrix> before;
    for (const nn::Matrix *p : engine.model().parameters())
        before.push_back(*p);

    RetrainStats bad = engine.retrain(poisoned);
    EXPECT_TRUE(bad.diverged);
    EXPECT_FALSE(engine.ready()); // predictions disabled
    EXPECT_GT(registry.counter("drl.train.diverged").value(),
              diverged_before);
    EXPECT_GT(registry.counter("drl.train.rollbacks").value(),
              rollbacks_before);
    // The rollback restored the pre-retrain weights bit for bit.
    const std::vector<nn::Matrix *> &after = engine.model().parameters();
    ASSERT_EQ(after.size(), before.size());
    for (size_t i = 0; i < before.size(); ++i) {
        ASSERT_EQ(after[i]->size(), before[i].size());
        EXPECT_EQ(std::memcmp(after[i]->data().data(),
                              before[i].data().data(),
                              before[i].size() * sizeof(double)),
                  0)
            << "parameter " << i;
    }

    // The rollback restored finite weights: the next good retrain
    // starts from them and converges again.
    RetrainStats recovered = engine.retrain(good);
    EXPECT_TRUE(recovered.trained);
    EXPECT_FALSE(recovered.diverged);
    EXPECT_TRUE(engine.ready());
    PerfRecord probe;
    probe.file = 3;
    probe.device = 0;
    probe.rb = 1010000;
    probe.ots = 300;
    probe.cts = 301;
    std::vector<std::vector<CandidateScore>> scores =
        engine.scoreLocations({probe}, {0, 1, 2});
    for (const CandidateScore &score : scores[0])
        EXPECT_TRUE(std::isfinite(score.predictedThroughput));
}

} // namespace
} // namespace core
} // namespace geo
