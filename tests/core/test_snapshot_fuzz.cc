/**
 * @file
 * Seeded mutation fuzzing of snapshot loading.
 *
 * The seeded byte mutator of fuzz.hh derives about a thousand hostile
 * variants each of the golden engine state, a
 * CheckpointManager file and a small ExperimentRunner snapshot. Every
 * load must fail or succeed cleanly: no exception escapes, and a
 * rejected load leaves what it loads into as it was.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/drl_engine.hh"
#include "core/experiment.hh"
#include "storage/bluesky.hh"
#include "util/crc32.hh"
#include "util/fs_atomic.hh"
#include "util/state_io.hh"

#include "fuzz.hh"

namespace geo {
namespace core {
namespace {

using fuzz::kMutants;
using fuzz::Mutator;
using fuzz::QuietLog;

std::vector<double>
weightsOf(DrlEngine &engine)
{
    std::vector<double> out;
    for (const nn::Matrix *p : engine.model().parameters())
        out.insert(out.end(), p->data().begin(), p->data().end());
    return out;
}

TEST(SnapshotFuzz, DrlEngineLoadStateSurvivesMutatedGoldenState)
{
    std::string golden;
    ASSERT_TRUE(util::readFileAll(GEO_TEST_DATA_DIR "/golden_drl.state",
                                  golden));
    QuietLog quiet;
    DrlConfig config;
    config.epochs = 8;
    DrlEngine engine(config);
    Mutator mutator(golden, 0xD21);
    size_t rejected = 0;
    for (size_t i = 0; i < kMutants; ++i) {
        std::string text = mutator.next();
        std::vector<double> before = weightsOf(engine);
        bool ready = engine.ready();
        std::istringstream is(text);
        util::StateReader r(is);
        try {
            engine.loadState(r);
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << " threw: " << e.what();
            continue;
        }
        if (r.ok())
            continue;
        ++rejected;
        EXPECT_FALSE(r.error().empty()) << "mutant " << i;
        EXPECT_EQ(weightsOf(engine), before)
            << "rejected mutant " << i << " changed the weights";
        EXPECT_EQ(engine.ready(), ready) << "mutant " << i;
    }
    EXPECT_GT(rejected, kMutants / 2);
}

TEST(SnapshotFuzz, CheckpointReadSurvivesMutatedFiles)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "geo_snapshot_fuzz_ckpt";
    fs::remove_all(dir);
    CheckpointManager manager({dir.string()});
    std::string payload;
    for (int i = 0; i < 200; ++i)
        payload += "key" + std::to_string(i) + " " + std::to_string(i * i) +
                   "\n";
    ASSERT_TRUE(manager.write(7, payload));
    std::string file;
    ASSERT_TRUE(util::readFileAll(manager.pathFor(7), file));

    QuietLog quiet;
    Mutator mutator(file, 0xC4C);
    std::string path = (dir / "mutant.geo").string();
    size_t rejected = 0;
    for (size_t i = 0; i < kMutants; ++i) {
        std::string text = mutator.next();
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os << text;
        }
        CheckpointHeader header;
        header.cycle = 12345;
        std::string out = "untouched";
        bool ok = false;
        try {
            ok = CheckpointManager::read(path, header, out);
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << " threw: " << e.what();
            continue;
        }
        if (ok) {
            // Only a mutation that kept the header consistent passes.
            EXPECT_EQ(out.size(), header.bytes) << "mutant " << i;
            EXPECT_EQ(util::crc32(out), header.crc) << "mutant " << i;
            continue;
        }
        ++rejected;
        EXPECT_TRUE(out == "untouched" && header.cycle == 12345)
            << "rejected mutant " << i << " wrote its outputs";
    }
    EXPECT_GT(rejected, kMutants * 9 / 10);
    fs::remove_all(dir);
}

TEST(SnapshotFuzz, ExperimentRunnerLoadStateSurvivesMutatedSnapshots)
{
    auto system = storage::makeBlueskySystem(3);
    workload::Belle2Workload workload(*system);
    RandomPolicy policy(/*dynamic=*/true);
    ExperimentConfig config;
    config.warmupRuns = 1;
    config.measuredRuns = 4;
    config.cadence = 1;
    ExperimentRunner runner(*system, workload, policy, config);
    for (int i = 0; i < 4; ++i)
        runner.step();
    auto save = [&runner] {
        std::ostringstream os;
        util::StateWriter w(os);
        runner.saveState(w);
        return os.str();
    };
    const std::string pristine = save();

    QuietLog quiet;
    Mutator mutator(pristine, 0xE8);
    size_t rejected = 0;
    for (size_t i = 0; i < kMutants; ++i) {
        std::string text = mutator.next();
        std::string before = save();
        std::istringstream is(text);
        util::StateReader r(is);
        try {
            runner.loadState(r);
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << " threw: " << e.what();
            continue;
        }
        if (r.ok())
            continue;
        ++rejected;
        EXPECT_FALSE(r.error().empty()) << "mutant " << i;
        EXPECT_EQ(save(), before)
            << "rejected mutant " << i << " changed the runner";
    }
    EXPECT_GT(rejected, kMutants / 2);
}

} // namespace
} // namespace core
} // namespace geo
