/**
 * @file
 * Tests for the movement scheduler (cooldown + gap admission).
 */

#include <gtest/gtest.h>

#include "core/geomancy.hh"
#include "core/movement_scheduler.hh"
#include "storage/bluesky.hh"
#include "workload/belle2.hh"

namespace geo {
namespace core {
namespace {

CheckedMove
moveOf(storage::FileId file, storage::DeviceId from, storage::DeviceId to)
{
    CheckedMove move;
    move.file = file;
    move.from = from;
    move.to = to;
    move.predictedGain = 0.5;
    return move;
}

struct Fixture
{
    std::unique_ptr<storage::StorageSystem> system =
        storage::makeBlueskySystem();
    ReplayDb db;
    storage::FileId file;

    Fixture() { file = system->addFile("f", 1 << 20, 0); }
};

TEST(MovementScheduler, CooldownBlocksRapidRemoves)
{
    Fixture fx;
    SchedulerConfig config;
    config.fileCooldownSeconds = 100.0;
    config.checkGaps = false;
    MovementScheduler scheduler(*fx.system, fx.db, config);

    EXPECT_TRUE(scheduler.admit(moveOf(fx.file, 0, 1), 0.0));
    EXPECT_FALSE(scheduler.admit(moveOf(fx.file, 1, 2), 50.0));
    EXPECT_EQ(scheduler.rejectedByCooldown(), 1u);
    EXPECT_TRUE(scheduler.admit(moveOf(fx.file, 1, 2), 150.0));
}

TEST(MovementScheduler, CooldownIsPerFile)
{
    Fixture fx;
    storage::FileId other = fx.system->addFile("g", 1 << 20, 0);
    SchedulerConfig config;
    config.fileCooldownSeconds = 100.0;
    config.checkGaps = false;
    MovementScheduler scheduler(*fx.system, fx.db, config);
    EXPECT_TRUE(scheduler.admit(moveOf(fx.file, 0, 1), 0.0));
    EXPECT_TRUE(scheduler.admit(moveOf(other, 0, 1), 0.0));
}

TEST(MovementScheduler, GapCheckBlocksBusyFiles)
{
    Fixture fx;
    // File accessed back to back: gaps ~0.
    std::vector<PerfRecord> records;
    for (int i = 0; i < 20; ++i) {
        PerfRecord rec;
        rec.file = fx.file;
        rec.device = 0;
        rec.rb = 1000;
        rec.ots = i;
        rec.cts = i + 1; // closes exactly when the next opens
        rec.throughput = 1000.0;
        records.push_back(rec);
    }
    fx.db.insertAccesses(records);
    SchedulerConfig config;
    config.fileCooldownSeconds = 0.0;
    config.checkGaps = true;
    MovementScheduler scheduler(*fx.system, fx.db, config);
    EXPECT_FALSE(scheduler.admit(moveOf(fx.file, 0, 1), 100.0));
    EXPECT_EQ(scheduler.rejectedByGap(), 1u);
}

TEST(MovementScheduler, IdleFilesPassGapCheck)
{
    Fixture fx;
    SchedulerConfig config;
    config.fileCooldownSeconds = 0.0;
    config.checkGaps = true;
    MovementScheduler scheduler(*fx.system, fx.db, config);
    // No history at all: moving cannot collide.
    EXPECT_TRUE(scheduler.admit(moveOf(fx.file, 0, 1), 0.0));
}

TEST(MovementScheduler, ExpectedTransferPositive)
{
    Fixture fx;
    MovementScheduler scheduler(*fx.system, fx.db, {});
    double seconds =
        scheduler.expectedTransferSeconds(moveOf(fx.file, 0, 1), 0.0);
    EXPECT_GT(seconds, 0.0);
    EXPECT_LT(seconds, 1.0); // 1 MB over GB/s-class devices
}

TEST(MovementScheduler, AdmitAllFilters)
{
    Fixture fx;
    storage::FileId other = fx.system->addFile("g", 1 << 20, 0);
    SchedulerConfig config;
    config.fileCooldownSeconds = 100.0;
    config.checkGaps = false;
    MovementScheduler scheduler(*fx.system, fx.db, config);
    scheduler.admit(moveOf(fx.file, 0, 1), 0.0); // start cooldown

    std::vector<CheckedMove> moves = {moveOf(fx.file, 1, 2),
                                      moveOf(other, 0, 1)};
    std::vector<CheckedMove> admitted =
        scheduler.admitAll(std::move(moves), 10.0);
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0].file, other);
}

TEST(MovementScheduler, GeomancyIntegration)
{
    // Geomancy with the scheduler enabled still runs cycles cleanly.
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    GeomancyConfig config;
    config.drl.epochs = 8;
    config.minHistory = 200;
    config.useScheduler = true;
    config.scheduler.fileCooldownSeconds = 5.0;
    Geomancy geomancy(*system, workload.files(), config);
    for (int run = 0; run < 4; ++run)
        workload.executeRun();
    for (int cycle = 0; cycle < 3; ++cycle) {
        CycleReport report = geomancy.runCycle();
        EXPECT_FALSE(report.skipped);
        workload.executeRun();
    }
    ASSERT_NE(geomancy.scheduler(), nullptr);
}

TEST(MovementSchedulerDeathTest, BadConfig)
{
    Fixture fx;
    SchedulerConfig config;
    config.fileCooldownSeconds = -1.0;
    EXPECT_DEATH(MovementScheduler(*fx.system, fx.db, config),
                 "cooldown");
}

} // namespace
} // namespace core
} // namespace geo
