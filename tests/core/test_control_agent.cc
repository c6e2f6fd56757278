/**
 * @file
 * Tests for the control agent.
 */

#include <gtest/gtest.h>

#include "core/control_agent.hh"
#include "storage/bluesky.hh"

namespace geo {
namespace core {
namespace {

/** Seed of the control agent's backoff jitter. */
constexpr uint64_t kSeed = 17;

TEST(ControlAgent, AppliesValidMoves)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 1000, 0);
    ReplayDb db;
    ControlAgent agent(*system, &db, kSeed);

    MoveSummary summary = agent.apply({{file, 3}});
    EXPECT_EQ(summary.requested, 1u);
    EXPECT_EQ(summary.applied, 1u);
    EXPECT_EQ(summary.bytesMoved, 1000u);
    EXPECT_GT(summary.transferSeconds, 0.0);
    EXPECT_EQ(system->location(file), 3u);
}

TEST(ControlAgent, LogsMovementsToReplayDb)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 1000, 0);
    ReplayDb db;
    ControlAgent agent(*system, &db, kSeed);
    agent.apply({{file, 1}, {file, 2}});
    auto moves = db.recentMovements(3);
    ASSERT_EQ(moves.size(), 2u);
    EXPECT_EQ(moves[0].toDevice, 1u);
    EXPECT_EQ(moves[1].fromDevice, 1u);
    EXPECT_EQ(moves[1].toDevice, 2u);
}

TEST(ControlAgent, SkipsNoOpAndInvalidMoves)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 1000, 0);
    ReplayDb db;
    ControlAgent agent(*system, &db, kSeed);
    MoveSummary summary = agent.apply({
        {file, 0},   // already there
        {file, 99},  // no such device
    });
    EXPECT_EQ(summary.requested, 2u);
    EXPECT_EQ(summary.applied, 0u);
    EXPECT_TRUE(db.recentMovements(1).empty());
}

TEST(ControlAgent, WorksWithoutDb)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 1000, 0);
    ControlAgent agent(*system, nullptr, kSeed);
    MoveSummary summary = agent.apply({{file, 2}});
    EXPECT_EQ(summary.applied, 1u);
}

TEST(ControlAgent, LifetimeTotals)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId f1 = system->addFile("a", 100, 0);
    storage::FileId f2 = system->addFile("b", 200, 0);
    ControlAgent agent(*system, nullptr, kSeed);
    agent.apply({{f1, 1}});
    agent.apply({{f2, 2}});
    EXPECT_EQ(agent.totalMoves(), 2u);
    EXPECT_EQ(agent.totalBytesMoved(), 300u);
}

} // namespace
} // namespace core
} // namespace geo
