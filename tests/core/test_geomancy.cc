/**
 * @file
 * Integration tests: Geomancy attached to the Bluesky system with the
 * BELLE II workload.
 */

#include <gtest/gtest.h>

#include "core/geomancy.hh"
#include "storage/bluesky.hh"
#include "workload/belle2.hh"

namespace geo {
namespace core {
namespace {

GeomancyConfig
fastConfig()
{
    GeomancyConfig config;
    config.drl.epochs = 15;
    config.daemon.windowPerDevice = 400;
    config.minHistory = 200;
    return config;
}

TEST(Geomancy, SkipsUntilEnoughHistory)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    Geomancy geomancy(*system, workload.files(), fastConfig());

    CycleReport report = geomancy.runCycle();
    EXPECT_TRUE(report.skipped);
    EXPECT_FALSE(report.acted);
    EXPECT_EQ(geomancy.cyclesRun(), 1u);
}

TEST(Geomancy, CollectsObservationsThroughAgents)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    Geomancy geomancy(*system, workload.files(), fastConfig());

    workload.executeRun();
    geomancy.runCycle(); // flushes agents
    EXPECT_GT(geomancy.replayDb().accessCount(), 200);
}

TEST(Geomancy, ActsAfterWarmup)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    Geomancy geomancy(*system, workload.files(), fastConfig());

    for (int run = 0; run < 3; ++run)
        workload.executeRun();

    bool acted = false;
    for (int cycle = 0; cycle < 8 && !acted; ++cycle) {
        workload.executeRun();
        CycleReport report = geomancy.runCycle();
        acted = report.acted;
        EXPECT_FALSE(report.skipped);
    }
    EXPECT_TRUE(acted) << "Geomancy never moved a file in 8 cycles";
    EXPECT_FALSE(geomancy.replayDb().recentMovements(1).empty());
}

TEST(Geomancy, MovesRespectCap)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    GeomancyConfig config = fastConfig();
    config.explorationRate = 0.0;
    Geomancy geomancy(*system, workload.files(), config);

    for (int run = 0; run < 4; ++run)
        workload.executeRun();
    for (int cycle = 0; cycle < 5; ++cycle) {
        CycleReport report = geomancy.runCycle();
        EXPECT_LE(report.moves.applied, kMaxMovesPerCycle);
        workload.executeRun();
    }
}

TEST(Geomancy, ExplorationCyclesHappen)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    GeomancyConfig config = fastConfig();
    config.explorationRate = 1.0; // force exploration
    config.drl.epochs = 5;
    Geomancy geomancy(*system, workload.files(), config);

    for (int run = 0; run < 3; ++run)
        workload.executeRun();
    CycleReport report = geomancy.runCycle();
    EXPECT_TRUE(report.explored);
}

TEST(Geomancy, PredictLayoutDoesNotMoveFiles)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    Geomancy geomancy(*system, workload.files(), fastConfig());

    for (int run = 0; run < 3; ++run)
        workload.executeRun();
    auto layout_before = system->layout();
    std::vector<MoveRequest> proposal = geomancy.predictLayout();
    EXPECT_EQ(system->layout(), layout_before);
    for (const MoveRequest &req : proposal) {
        EXPECT_LT(req.target, system->deviceCount());
        EXPECT_NE(req.target, system->location(req.file));
    }
}

TEST(GeomancyDeathTest, NoManagedFiles)
{
    auto system = storage::makeBlueskySystem();
    EXPECT_DEATH(Geomancy(*system, {}, fastConfig()), "managed");
}

} // namespace
} // namespace core
} // namespace geo
