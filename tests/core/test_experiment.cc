/**
 * @file
 * Integration tests for the experiment runner.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "storage/bluesky.hh"
#include "util/state_io.hh"

namespace geo {
namespace core {
namespace {

ExperimentConfig
shortConfig()
{
    ExperimentConfig config;
    config.warmupRuns = 1;
    config.measuredRuns = 6;
    config.cadence = 2;
    return config;
}

TEST(ExperimentRunner, CollectsSeries)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    NoOpPolicy policy;
    ExperimentRunner runner(*system, workload, policy, shortConfig());
    ExperimentResult result = runner.run();

    EXPECT_EQ(result.policyName, "no-op");
    EXPECT_EQ(result.totalAccesses, result.throughputSeries.size());
    EXPECT_GT(result.totalAccesses, 1000u);
    EXPECT_GT(result.averageThroughput, 0.0);
    EXPECT_EQ(result.filesMoved, 0u);
    EXPECT_TRUE(result.moveEvents.empty());

    uint64_t per_device_total = 0;
    for (uint64_t count : result.accessesPerDevice)
        per_device_total += count;
    EXPECT_EQ(per_device_total, result.totalAccesses);
}

TEST(ExperimentRunner, DynamicPolicyRebalancesOnCadence)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    RandomPolicy policy(/*dynamic=*/true);
    ExperimentRunner runner(*system, workload, policy, shortConfig());
    ExperimentResult result = runner.run();
    // Initial placement + rebalances at runs 2 and 4 (not at the end).
    EXPECT_GE(result.moveEvents.size(), 2u);
    EXPECT_GT(result.filesMoved, 0u);
    EXPECT_GT(result.bytesMoved, 0u);
}

TEST(ExperimentRunner, StaticPolicyMovesOnlyAtStart)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    SingleMountPolicy policy(system->deviceByName("file0"));
    ExperimentRunner runner(*system, workload, policy, shortConfig());
    ExperimentResult result = runner.run();
    ASSERT_EQ(result.moveEvents.size(), 1u);
    EXPECT_EQ(result.moveEvents[0].accessNumber, 0u);
    // All measured accesses served by file0.
    storage::DeviceId file0 = system->deviceByName("file0");
    EXPECT_EQ(result.accessesPerDevice[file0], result.totalAccesses);
}

TEST(ExperimentRunner, MoveEventsAlignedToSeries)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    RandomPolicy policy(true);
    ExperimentRunner runner(*system, workload, policy, shortConfig());
    ExperimentResult result = runner.run();
    for (const MoveEvent &event : result.moveEvents) {
        EXPECT_LE(event.accessNumber, result.totalAccesses);
        EXPECT_GT(event.filesMoved, 0u);
    }
}

TEST(ExperimentRunner, RunHookFiresEachMeasuredRun)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    NoOpPolicy policy;
    ExperimentRunner runner(*system, workload, policy, shortConfig());
    std::vector<size_t> seen;
    runner.setRunHook([&](size_t run) { seen.push_back(run); });
    runner.run();
    EXPECT_EQ(seen.size(), 6u);
    EXPECT_EQ(seen.front(), 0u);
    EXPECT_EQ(seen.back(), 5u);
}

/** `state` with the value of its `key` line replaced by `value`. */
std::string
withValue(std::string state, const std::string &key,
          const std::string &value)
{
    size_t at = state.find("\n" + key + " ");
    EXPECT_NE(at, std::string::npos) << key;
    size_t from = at + key.size() + 2;
    state.replace(from, state.find('\n', from) - from, value);
    return state;
}

// A snapshot is untrusted input: a hostile count is rejected without
// being allocated, a per-device count must be one, and a rejected load
// leaves the runner as it was.
TEST(ExperimentRunner, HostileSnapshotRejectedLeavesRunnerUntouched)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    RandomPolicy policy(true);
    ExperimentRunner runner(*system, workload, policy, shortConfig());
    for (int i = 0; i < 4; ++i)
        runner.step();
    auto save = [&runner] {
        std::ostringstream os;
        util::StateWriter w(os);
        runner.saveState(w);
        return os.str();
    };
    const std::string pristine = save();
    const std::string devices = std::to_string(system->deviceCount());
    std::string zeros;
    for (size_t d = 1; d < system->deviceCount(); ++d)
        zeros += " 0";
    for (const std::string &hostile :
         {withValue(pristine, "exp.events", "18446744073709551615"),
          withValue(pristine, "exp.events", "1000000000000"),
          withValue(pristine, "exp.per_device", devices + zeros + " 0x1p+70"),
          withValue(pristine, "exp.per_device", devices + zeros + " -0x1p+0"),
          withValue(pristine, "exp.per_device", devices + zeros + " 0x1.8p+0"),
          withValue(pristine, "exp.per_device", devices + zeros + " nan"),
          withValue(pristine, "exp.per_device", "1 0x1p+0")}) {
        std::istringstream is(hostile);
        util::StateReader r(is);
        EXPECT_NO_THROW(runner.loadState(r));
        EXPECT_FALSE(r.ok());
        EXPECT_FALSE(r.error().empty());
        EXPECT_EQ(save(), pristine) << "a rejected snapshot changed the runner";
    }
    std::istringstream is(pristine);
    util::StateReader r(is);
    runner.loadState(r);
    EXPECT_TRUE(r.ok()) << r.error();
}

TEST(ExperimentResult, SmoothedAndBucketedSeries)
{
    ExperimentResult result;
    for (int i = 0; i < 100; ++i)
        result.throughputSeries.push_back(static_cast<double>(i));
    EXPECT_EQ(result.smoothedSeries(10).size(), 100u);
    std::vector<double> buckets = result.bucketedSeries(25);
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_DOUBLE_EQ(buckets[0], 12.0); // mean of 0..24
    EXPECT_DOUBLE_EQ(buckets[3], 87.0); // mean of 75..99
}

TEST(ExperimentRunnerDeathTest, ZeroCadence)
{
    auto system = storage::makeBlueskySystem();
    workload::Belle2Workload workload(*system);
    NoOpPolicy policy;
    ExperimentConfig config;
    config.cadence = 0;
    EXPECT_DEATH(ExperimentRunner(*system, workload, policy, config),
                 "cadence");
}

} // namespace
} // namespace core
} // namespace geo
