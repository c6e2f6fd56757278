/**
 * @file
 * Tests for the fleet-scale shard coordinator: partition stability,
 * cross-shard admission budgets, safe-mode fan-out, the 1-shard ==
 * monolith equivalence, and 4-shard same-seed twin determinism
 * (byte-identical ledgers and checkpoint CRCs).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>

#include "core/shard_coordinator.hh"
#include "storage/bluesky.hh"
#include "util/crc32.hh"
#include "util/fs_atomic.hh"
#include "workload/belle2.hh"

namespace geo {
namespace core {
namespace {

GeomancyConfig
fastConfig()
{
    GeomancyConfig config;
    config.drl.epochs = 5;
    config.daemon.windowPerDevice = 400;
    config.minHistory = 200;
    return config;
}

ShardCoordinatorConfig
fastCoordConfig(size_t shards)
{
    ShardCoordinatorConfig config;
    config.shardCount = shards;
    config.base = fastConfig();
    return config;
}

TEST(ShardCoordinator, HashPartitionStableAndComplete)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    ShardCoordinator coordinator(*system, workload.files(),
                                 fastCoordConfig(4));
    ASSERT_EQ(coordinator.shardCount(), 4u);

    // Every managed file lands in exactly one shard, the one the
    // stable hash names; re-hashing gives the same answer.
    std::set<storage::FileId> seen;
    for (size_t i = 0; i < coordinator.shardCount(); ++i) {
        for (storage::FileId file : coordinator.shardFiles(i)) {
            EXPECT_TRUE(seen.insert(file).second)
                << "file " << file << " in two shards";
            EXPECT_EQ(ShardCoordinator::shardForFile(file, 4), i);
            EXPECT_EQ(ShardCoordinator::shardForFile(file, 4),
                      ShardCoordinator::shardForFile(file, 4));
        }
    }
    EXPECT_EQ(seen.size(), workload.files().size());
}

TEST(ShardCoordinator, ExplicitAssignmentOverridesShardCount)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    const std::vector<storage::FileId> &files = workload.files();
    ASSERT_GE(files.size(), 4u);
    std::vector<std::vector<storage::FileId>> assignment(2);
    for (size_t i = 0; i < files.size(); ++i)
        assignment[i % 2].push_back(files[i]);

    ShardCoordinatorConfig config = fastCoordConfig(7); // overridden
    ShardCoordinator coordinator(*system, assignment, config);
    EXPECT_EQ(coordinator.shardCount(), 2u);
    EXPECT_EQ(coordinator.shardFiles(0), assignment[0]);
    EXPECT_EQ(coordinator.shardFiles(1), assignment[1]);
}

TEST(ShardCoordinatorDeathTest, EmptyShardPanics)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    std::vector<std::vector<storage::FileId>> assignment(2);
    assignment[0] = workload.files(); // shard 1 left empty
    ShardCoordinatorConfig config = fastCoordConfig(2);
    EXPECT_DEATH(ShardCoordinator(*system, assignment, config),
                 "no files");
}

TEST(ShardCoordinator, MoveBudgetNeverAdmitsBeyondK)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    ShardCoordinatorConfig config = fastCoordConfig(2);
    const size_t K = 3;
    config.maxMovesPerDevicePerRound = K;
    ShardCoordinator coordinator(*system, workload.files(), config);

    // Exactly K moves touching device 0 are admitted; the K+1th is
    // denied no matter which endpoint device 0 is.
    for (size_t i = 0; i < K; ++i)
        EXPECT_TRUE(coordinator.admitMove(0, 1, 100));
    EXPECT_FALSE(coordinator.admitMove(0, 2, 100));
    EXPECT_FALSE(coordinator.admitMove(2, 0, 100));
    EXPECT_EQ(coordinator.movesDenied(), 2u);
    EXPECT_EQ(coordinator.roundUsage(0).moves, K);

    // Device 1 was charged as the target of the same K moves, so it
    // is saturated too; devices 2..5 are untouched.
    EXPECT_FALSE(coordinator.admitMove(2, 1, 100));
    EXPECT_TRUE(coordinator.admitMove(2, 3, 100));
}

TEST(ShardCoordinator, ByteBudgetChargesBothEndpoints)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    ShardCoordinatorConfig config = fastCoordConfig(2);
    config.maxMovesPerDevicePerRound = 0; // moves unlimited
    config.maxBytesInFlightPerDevice = 1000;
    ShardCoordinator coordinator(*system, workload.files(), config);

    EXPECT_TRUE(coordinator.admitMove(0, 1, 600));
    // 600 already in flight on both 0 and 1: another 600 to either
    // endpoint would exceed the 1000-byte budget.
    EXPECT_FALSE(coordinator.admitMove(0, 2, 600));
    EXPECT_FALSE(coordinator.admitMove(2, 1, 600));
    EXPECT_TRUE(coordinator.admitMove(0, 1, 400)); // exactly to budget
    EXPECT_EQ(coordinator.roundUsage(0).bytes, 1000u);
    EXPECT_EQ(coordinator.roundUsage(1).bytes, 1000u);
}

TEST(ShardCoordinator, SameDeviceAndOutOfRangePassUncharged)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    ShardCoordinatorConfig config = fastCoordConfig(2);
    config.maxMovesPerDevicePerRound = 1;
    ShardCoordinator coordinator(*system, workload.files(), config);

    // Same-device and out-of-range requests never transfer anything
    // (the control agent skips them); they pass without spending
    // budget.
    EXPECT_TRUE(coordinator.admitMove(0, 0, 1 << 20));
    EXPECT_TRUE(coordinator.admitMove(99, 0, 1 << 20));
    EXPECT_EQ(coordinator.roundUsage(0).moves, 0u);
    EXPECT_TRUE(coordinator.admitMove(0, 1, 100));
}

TEST(ShardCoordinator, RunRoundRunsEveryShardAndResetsBudgets)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    ShardCoordinatorConfig config = fastCoordConfig(4);
    config.maxMovesPerDevicePerRound = 1;
    ShardCoordinator coordinator(*system, workload.files(), config);

    // Saturate device 0 by hand, then run a round: beginRound() must
    // wipe the manual charges.  With no telemetry yet every shard
    // skips, so the round itself admits nothing.
    EXPECT_TRUE(coordinator.admitMove(0, 1, 1));
    EXPECT_FALSE(coordinator.admitMove(0, 2, 1));
    std::vector<CycleReport> reports = coordinator.runRound();
    ASSERT_EQ(reports.size(), 4u);
    for (const CycleReport &report : reports)
        EXPECT_TRUE(report.skipped);
    EXPECT_EQ(coordinator.roundsRun(), 1u);
    EXPECT_TRUE(coordinator.admitMove(0, 1, 1));
}

TEST(ShardCoordinator, SafeModeFanOutTripsCoTenants)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    ShardCoordinator coordinator(*system, workload.files(),
                                 fastCoordConfig(4));

    // Trip shard 0 as a substrate fault would; the next round must
    // propagate safe mode to every co-tenant before they act.
    ASSERT_TRUE(coordinator.shard(0).guardrails().tripSafeMode(
        coordinator.shard(0).cyclesRun()));
    EXPECT_EQ(coordinator.fanOuts(), 0u);
    coordinator.runRound();
    EXPECT_EQ(coordinator.fanOuts(), 3u);
    for (size_t i = 0; i < coordinator.shardCount(); ++i)
        EXPECT_TRUE(coordinator.shard(i).guardrails().safeMode())
            << "shard " << i;

    // Fan-out is edge-triggered: another round while everyone is
    // already safe does not re-trip.
    coordinator.runRound();
    EXPECT_EQ(coordinator.fanOuts(), 3u);
}

TEST(ShardCoordinator, MidRoundFanOutStopsRetrainedCoTenants)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    ShardCoordinator coordinator(*system, workload.files(),
                                 fastCoordConfig(4));
    const std::string ledger_base = "midround-ledger";
    coordinator.attachLedgers(ledger_base);
    for (int run = 0; run < 3; ++run)
        workload.executeRun();
    std::vector<size_t> before(4);
    for (size_t i = 0; i < 4; ++i) {
        std::string text;
        util::readFileAll(ShardCoordinator::ledgerPath(ledger_base, i),
                          text);
        before[i] = text.size();
    }

    // Shard 0 trips before the round. Shards 1-3 open healthy and
    // retrain alongside; shard 0's close fans safe mode out to them,
    // so their closes neither propose nor migrate.
    ASSERT_TRUE(coordinator.shard(0).guardrails().tripSafeMode(
        coordinator.shard(0).cyclesRun()));
    std::vector<CycleReport> reports = coordinator.runRound();
    ASSERT_EQ(reports.size(), 4u);
    EXPECT_TRUE(reports[0].skipped);
    EXPECT_FALSE(reports[0].retrain.trained);
    for (size_t i = 1; i < 4; ++i) {
        EXPECT_TRUE(reports[i].retrain.trained) << "shard " << i;
        EXPECT_FALSE(reports[i].retrain.diverged) << "shard " << i;
        EXPECT_EQ(reports[i].proposedMoves, 0u) << "shard " << i;
        EXPECT_EQ(reports[i].moves.applied, 0u) << "shard " << i;
        EXPECT_TRUE(reports[i].safeMode) << "shard " << i;

        std::string text;
        ASSERT_TRUE(util::readFileAll(
            ShardCoordinator::ledgerPath(ledger_base, i), text));
        std::string round = text.substr(before[i]);
        EXPECT_NE(round.find("\"t\":\"phase\""), std::string::npos)
            << "shard " << i << " wrote no rows this round";
        EXPECT_EQ(round.find("\"t\":\"candidate\""), std::string::npos)
            << "shard " << i << " recorded a candidate after the trip";
    }
    EXPECT_EQ(coordinator.fanOuts(), 3u);
    for (size_t i = 0; i < coordinator.shardCount(); ++i)
        EXPECT_TRUE(coordinator.shard(i).guardrails().safeMode())
            << "shard " << i;

    for (size_t i = 0; i < 4; ++i)
        std::filesystem::remove(
            ShardCoordinator::ledgerPath(ledger_base, i));
}

TEST(ShardCoordinator, OneShardMatchesMonolith)
{
    // A 1-shard coordinator takes the same code path as a bare
    // Geomancy: no observe filter, no window scaling, unchanged
    // seeds.  Same seed, same schedule => byte-identical engine cuts.
    auto runMonolith = [] {
        auto system = storage::makeBlueskySystem();
        workload::Belle2Workload workload(*system);
        Geomancy geomancy(*system, workload.files(), fastConfig());
        for (int run = 0; run < 3; ++run)
            workload.executeRun();
        for (int cycle = 0; cycle < 3; ++cycle) {
            geomancy.runCycle();
            workload.executeRun();
        }
        std::ostringstream os;
        util::StateWriter w(os);
        geomancy.saveState(w);
        return os.str();
    };
    auto runSharded = [] {
        auto system = storage::makeBlueskySystem();
        workload::Belle2Workload workload(*system);
        ShardCoordinatorConfig config = fastCoordConfig(1);
        config.maxMovesPerDevicePerRound = 0; // monolith has no budget
        ShardCoordinator coordinator(*system, workload.files(), config);
        for (int run = 0; run < 3; ++run)
            workload.executeRun();
        for (int cycle = 0; cycle < 3; ++cycle) {
            coordinator.runRound();
            workload.executeRun();
        }
        std::ostringstream os;
        util::StateWriter w(os);
        coordinator.shard(0).saveState(w);
        return os.str();
    };
    std::string mono = runMonolith();
    std::string sharded = runSharded();
    ASSERT_FALSE(mono.empty());
    EXPECT_EQ(mono, sharded);
}

/**
 * One full 4-shard run over a multi-tenant workload: warm up, run
 * `rounds` coordinator rounds with workload traffic in between, then
 * return every ledger file's bytes plus the final checkpoint payload.
 */
std::pair<std::vector<std::string>, std::string>
runTwinStack(const std::string &ledger_base, size_t rounds,
             std::vector<bool> &trained)
{
    for (size_t i = 0; i < 4; ++i)
        std::filesystem::remove(
            ShardCoordinator::ledgerPath(ledger_base, i));

    auto system = storage::makeBlueskySystem();
    workload::Belle2Config wcfg;
    wcfg.tenantCount = 3;
    workload::Belle2Workload workload(*system, wcfg);
    ShardCoordinatorConfig config;
    config.shardCount = 4;
    config.base = fastConfig();
    config.maxMovesPerDevicePerRound = 2;
    auto coordinator = std::make_unique<ShardCoordinator>(
        *system, workload.files(), config);
    coordinator->attachLedgers(ledger_base);

    for (int run = 0; run < 3; ++run)
        workload.executeRun();
    trained.assign(4, false);
    for (size_t round = 0; round < rounds; ++round) {
        std::vector<CycleReport> reports = coordinator->runRound();
        for (size_t i = 0; i < reports.size(); ++i)
            trained[i] = trained[i] || reports[i].retrain.trained;
        workload.executeRun();
    }

    std::ostringstream os;
    util::StateWriter w(os);
    coordinator->saveState(w);
    coordinator.reset(); // close the ledgers before reading them

    std::vector<std::string> ledgers;
    for (size_t i = 0; i < 4; ++i) {
        ledgers.emplace_back();
        util::readFileAll(ShardCoordinator::ledgerPath(ledger_base, i),
                          ledgers.back());
    }
    return {ledgers, os.str()};
}

TEST(ShardCoordinator, FourShardTwinRunsByteIdentical)
{
    std::vector<bool> trained_a, trained_b;
    auto [ledgers_a, state_a] =
        runTwinStack("twin-a-ledger", 4, trained_a);
    auto [ledgers_b, state_b] =
        runTwinStack("twin-b-ledger", 4, trained_b);
    // Every shard retrained in some round, so the rounds ran their
    // retrains concurrently (the TSan subset runs this test).
    for (size_t i = 0; i < 4; ++i)
        EXPECT_TRUE(trained_a[i] && trained_b[i])
            << "shard " << i << " never trained";

    ASSERT_EQ(ledgers_a.size(), ledgers_b.size());
    bool any_rows = false;
    for (size_t i = 0; i < ledgers_a.size(); ++i) {
        EXPECT_EQ(ledgers_a[i], ledgers_b[i])
            << "ledger of shard " << i << " diverged";
        any_rows = any_rows || !ledgers_a[i].empty();
    }
    EXPECT_TRUE(any_rows) << "no ledger wrote a single row";
    EXPECT_EQ(util::crc32(state_a), util::crc32(state_b));
    EXPECT_EQ(state_a, state_b);

    for (size_t i = 0; i < 4; ++i) {
        std::filesystem::remove(
            ShardCoordinator::ledgerPath("twin-a-ledger", i));
        std::filesystem::remove(
            ShardCoordinator::ledgerPath("twin-b-ledger", i));
    }
}

TEST(ShardCoordinator, CheckpointRoundTripRestoresCounters)
{
    // A restart reopens the same on-disk per-shard ReplayDBs (the
    // snapshot carries a watermark, not the rows), so the round trip
    // must share the database files between the two stacks.
    const std::string db_base = "coord-roundtrip.db";
    for (size_t i = 0; i < 2; ++i)
        ReplayDb::removeFiles(ShardCoordinator::dbPath(db_base, i));
    auto buildStack = [&](storage::StorageSystem &system,
                          workload::Belle2Workload &workload) {
        ShardCoordinatorConfig config = fastCoordConfig(2);
        return std::make_unique<ShardCoordinator>(
            system, workload.files(), config, db_base);
    };

    auto system_a = storage::makeBlueskySystem();
    workload::Belle2Workload workload_a(*system_a);
    auto a = buildStack(*system_a, workload_a);
    for (int run = 0; run < 3; ++run)
        workload_a.executeRun();
    for (int round = 0; round < 2; ++round) {
        a->runRound();
        workload_a.executeRun();
    }
    std::ostringstream os;
    util::StateWriter w(os);
    a->saveState(w);
    uint64_t rounds = a->roundsRun();
    uint64_t denied = a->movesDenied();
    size_t peak_moves = a->peakDeviceMoves();
    a.reset(); // close the DB connections before the restart

    auto system_b = storage::makeBlueskySystem();
    workload::Belle2Workload workload_b(*system_b);
    auto b = buildStack(*system_b, workload_b);
    std::istringstream is(os.str());
    util::StateReader r(is);
    b->loadState(r);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(b->roundsRun(), rounds);
    EXPECT_EQ(b->movesDenied(), denied);
    EXPECT_EQ(b->peakDeviceMoves(), peak_moves);

    // The restored stack re-serializes to the same bytes.
    std::ostringstream os2;
    util::StateWriter w2(os2);
    b->saveState(w2);
    EXPECT_EQ(os.str(), os2.str());
    b.reset();
    for (size_t i = 0; i < 2; ++i)
        ReplayDb::removeFiles(ShardCoordinator::dbPath(db_base, i));
}

TEST(ShardCoordinator, WrongShardCountSnapshotFailsLoudly)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    auto four = std::make_unique<ShardCoordinator>(
        *system, workload.files(), fastCoordConfig(4));
    std::ostringstream os;
    util::StateWriter w(os);
    four->saveState(w);

    auto system2 = storage::makeBlueskySystem();
    workload::Belle2Workload workload2(*system2);
    auto two = std::make_unique<ShardCoordinator>(
        *system2, workload2.files(), fastCoordConfig(2));
    std::istringstream is(os.str());
    util::StateReader r(is);
    two->loadState(r);
    EXPECT_FALSE(r.ok());
}

} // namespace
} // namespace core
} // namespace geo
