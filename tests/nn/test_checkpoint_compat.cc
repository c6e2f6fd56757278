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

// Throughput is the only model target: a snapshot claiming any other
// `drl.target` must not load as if it were one.
TEST(CheckpointCompat, RejectsNonThroughputTarget)
{
    std::string state = readFixture("golden_drl.state");
    const std::string key = "\ndrl.target 0\n";
    size_t at = state.find(key);
    ASSERT_NE(at, std::string::npos);
    state.replace(at, key.size(), "\ndrl.target 1\n");

    core::DrlConfig config;
    config.epochs = 8;
    core::DrlEngine engine(config);
    std::istringstream is(state);
    util::StateReader r(is);
    engine.loadState(r);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("target"), std::string::npos) << r.error();
    EXPECT_FALSE(engine.ready());
}

// A hostile snapshot whose last-good weights differ from its weights
// (saveState never writes one) fails to load and leaves the engine
// untouched; the fixture itself is only read.
TEST(CheckpointCompat, RejectsLastGoodThatDiffersFromWeights)
{
    std::string state = readFixture("golden_drl.state");
    const std::string key = "\ndrl.last_good ";
    size_t at = state.find(key);
    ASSERT_NE(at, std::string::npos);
    size_t value = state.find('\n', at + key.size()) + 1;
    size_t flip = state.find_first_of("123456789abcdef", value + 64);
    ASSERT_NE(flip, std::string::npos);
    state[flip] = state[flip] == '1' ? '2' : '1';

    core::DrlConfig config;
    config.epochs = 8;
    core::DrlEngine engine(config);
    auto save = [&engine] {
        std::ostringstream os;
        util::StateWriter w(os);
        engine.saveState(w);
        return os.str();
    };
    const std::string pristine = save();

    std::istringstream is(state);
    util::StateReader r(is);
    engine.loadState(r);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("last-good"), std::string::npos)
        << r.error();
    EXPECT_FALSE(engine.ready());
    EXPECT_EQ(save(), pristine) << "a rejected snapshot changed the engine";
}

} // namespace
} // namespace nn
} // namespace geo
