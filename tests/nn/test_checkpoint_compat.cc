/**
 * @file
 * Checkpoint compatibility against pre-refactor golden fixtures.
 *
 * tests/data/golden_drl.state was produced by the build that ran the
 * allocating training loop (see the generation recipe below). Loading
 * it through the current arena-backed parameter storage, then
 * re-saving, must reproduce the file byte for byte — the serialized
 * format is the `geo-ckpt-1` contract and may not drift.
 *
 * Fixture recipe (run against the pre-refactor tree):
 *   golden_drl.state: DrlConfig{epochs=8}; 600 synthetic PerfRecords
 *     from Rng(11) via InterfaceDaemon::receiveBatch; retrain on
 *     buildTrainingBatch({0..5}); saveState.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/drl_engine.hh"
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
