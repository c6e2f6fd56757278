/**
 * @file
 * Checkpoint compatibility against pre-refactor golden fixtures.
 *
 * tests/data/golden_drl.state and golden_adam.state were produced by
 * the build that stored Adam moments as per-tensor matrices and ran
 * the allocating training loop (see the generation recipe below).
 * Loading them through the current arena-backed parameter storage and
 * flat-packed optimizer state, then re-saving, must reproduce the
 * files byte for byte — the serialized format is the `geo-ckpt-1`
 * contract and may not drift.
 *
 * Fixture recipe (run against the pre-refactor tree):
 *   golden_drl.state : DrlConfig{epochs=8}; 600 synthetic PerfRecords
 *     from Rng(11) via InterfaceDaemon::receiveBatch; retrain on
 *     buildTrainingBatch({0..5}); saveState.
 *   golden_adam.state: buildModel(1, 6, Rng(7)); 32x6 inputs
 *     fillNormal(rng, 0.4), targets 0.5; AdamOptimizer(0.002);
 *     12 trainBatch steps; saveState.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/drl_engine.hh"
#include "nn/optimizer.hh"
#include "util/fs_atomic.hh"
#include "util/state_io.hh"

namespace geo {
namespace nn {
namespace {

std::string
readFixture(const char *name)
{
    const std::string path = std::string(GEO_TEST_DATA_DIR "/") + name;
    std::string text;
    EXPECT_TRUE(util::readFileAll(path, text)) << "missing fixture " << path;
    return text;
}

TEST(CheckpointCompat, GoldenAdamStateRoundTripsByteExact)
{
    const std::string golden = readFixture("golden_adam.state");
    ASSERT_FALSE(golden.empty());

    AdamOptimizer opt(0.002);
    std::istringstream is(golden);
    util::StateReader r(is);
    opt.loadState(r);
    ASSERT_TRUE(r.ok());

    std::ostringstream os;
    util::StateWriter w(os);
    opt.saveState(w);
    EXPECT_EQ(os.str(), golden)
        << "flat-packed Adam moments must re-serialize the original "
           "per-tensor records unchanged";
}

TEST(CheckpointCompat, GoldenDrlEngineStateRoundTripsByteExact)
{
    const std::string golden = readFixture("golden_drl.state");
    ASSERT_FALSE(golden.empty());

    core::DrlConfig config;
    config.epochs = 8;
    core::DrlEngine engine(config);
    std::istringstream is(golden);
    util::StateReader r(is);
    engine.loadState(r);
    ASSERT_TRUE(r.ok());

    std::ostringstream os;
    util::StateWriter w(os);
    engine.saveState(w);
    EXPECT_EQ(os.str(), golden)
        << "arena-backed parameters must round-trip the pre-refactor "
           "engine state unchanged";
}

} // namespace
} // namespace nn
} // namespace geo
