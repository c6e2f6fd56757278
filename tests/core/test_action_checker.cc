/**
 * @file
 * Tests for the Action Checker.
 */

#include <gtest/gtest.h>

#include "core/action_checker.hh"
#include "storage/bluesky.hh"

namespace geo {
namespace core {
namespace {

std::vector<CandidateScore>
scores(std::initializer_list<std::pair<storage::DeviceId, double>> list)
{
    std::vector<CandidateScore> out;
    for (const auto &[device, tp] : list)
        out.push_back({device, tp});
    return out;
}

TEST(ActionChecker, ValidDevicesFiltersCapacityAndWritability)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 1000, 0);
    system->device(1).setWritable(false);
    ActionChecker checker(*system);

    std::vector<storage::DeviceId> valid =
        checker.validDevices(file, {0, 1, 2, 99});
    // 0 = current (always valid), 1 read-only, 2 fine, 99 missing.
    EXPECT_EQ(valid, (std::vector<storage::DeviceId>{0, 2}));
}

TEST(ActionChecker, SelectsHighestPredictedMove)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 1000, 0);
    ActionChecker checker(*system);
    Rng rng(1);
    auto move = checker.selectMove(
        file, scores({{0, 100.0}, {1, 300.0}, {2, 200.0}}), rng);
    ASSERT_TRUE(move.has_value());
    EXPECT_EQ(move->to, 1u);
    EXPECT_EQ(move->from, 0u);
    EXPECT_FALSE(move->random);
    EXPECT_NEAR(move->predictedGain, 2.0, 1e-9);
}

TEST(ActionChecker, TiedScoresPickLowestDeviceId)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 1000, 0);
    ActionChecker checker(*system);
    Rng rng(7);
    // Two devices tie on predicted throughput, the higher id listed
    // first.  The argmax must pin to the lowest device id, so shard
    // partitioning (which can reorder candidate lists) cannot change
    // the selected move.
    auto move = checker.selectMove(
        file, scores({{0, 100.0}, {3, 300.0}, {2, 300.0}}), rng);
    ASSERT_TRUE(move.has_value());
    EXPECT_EQ(move->to, 2u);
    EXPECT_FALSE(move->random);
}

TEST(ActionChecker, StayPutWhenCurrentBest)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 1000, 0);
    ActionChecker checker(*system);
    Rng rng(2);
    auto move = checker.selectMove(
        file, scores({{0, 300.0}, {1, 100.0}}), rng);
    EXPECT_FALSE(move.has_value());
}

TEST(ActionChecker, SmallGainsNotWorthMoving)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 1000, 0);
    ActionChecker checker(*system);
    Rng rng(3);
    // A gain just under kMinRelativeGain is not worth the transfer...
    double under = 100.0 * (1.0 + kMinRelativeGain / 2.0);
    MoveVeto veto = MoveVeto::None;
    auto move = checker.selectMove(
        file, scores({{0, 100.0}, {1, under}}), rng, &veto);
    EXPECT_FALSE(move.has_value());
    EXPECT_EQ(veto, MoveVeto::BelowMinGain);
    // ...and one just over it is.
    double over = 100.0 * (1.0 + kMinRelativeGain * 1.5);
    move = checker.selectMove(file, scores({{0, 100.0}, {1, over}}), rng);
    ASSERT_TRUE(move.has_value());
    EXPECT_EQ(move->to, 1u);
}

TEST(ActionChecker, RandomFallbackWhenAllInvalid)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 1000, 0);
    ActionChecker checker(*system);
    Rng rng(4);
    // Candidate list names only a missing device: fall back to random.
    auto move = checker.selectMove(file, scores({{99, 500.0}}), rng);
    ASSERT_TRUE(move.has_value());
    EXPECT_TRUE(move->random);
    EXPECT_NE(move->to, 0u);
    EXPECT_LT(move->to, system->deviceCount());
}

TEST(ActionChecker, RandomMoveTargetsValidDevice)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 1000, 2);
    for (storage::DeviceId d : {0u, 1u, 3u})
        system->device(d).setWritable(false);
    ActionChecker checker(*system);
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        auto move = checker.randomMove(file, rng);
        ASSERT_TRUE(move.has_value());
        EXPECT_TRUE(move->to == 4u || move->to == 5u);
    }
}

TEST(ActionChecker, RandomMoveImpossibleReturnsEmpty)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 1000, 0);
    for (storage::DeviceId d : system->deviceIds())
        if (d != 0)
            system->device(d).setWritable(false);
    ActionChecker checker(*system);
    Rng rng(6);
    EXPECT_FALSE(checker.randomMove(file, rng).has_value());
}

TEST(ActionChecker, CapMovesKeepsHighestGains)
{
    auto system = storage::makeBlueskySystem();
    ActionChecker checker(*system);
    // Spread over enough targets that the per-target cap alone would
    // keep more than kMaxMovesPerCycle.
    const size_t targets = system->deviceCount();
    const size_t count = kMaxMovesPerCycle + targets;
    ASSERT_GT(targets * CheckerConfig{}.maxMovesPerTarget, kMaxMovesPerCycle);
    std::vector<CheckedMove> moves(count);
    for (size_t i = 0; i < count; ++i) {
        moves[i].file = i;
        moves[i].to = static_cast<storage::DeviceId>(i % targets);
        moves[i].predictedGain = static_cast<double>(i);
    }
    std::vector<CheckedMove> capped = checker.capMoves(std::move(moves));
    ASSERT_EQ(capped.size(), kMaxMovesPerCycle);
    for (size_t i = 0; i < capped.size(); ++i)
        EXPECT_EQ(capped[i].file, count - 1 - i);
}

} // namespace
} // namespace core
} // namespace geo
