/**
 * @file
 * Seeded mutation fuzzing of snapshot loading.
 *
 * A byte mutator with a fixed seed (flip, insert and delete a byte,
 * duplicate a line, replace a number with a huge one) derives about a
 * thousand hostile variants each of the golden engine state, a
 * CheckpointManager file and a small ExperimentRunner snapshot. Every
 * load must fail or succeed cleanly: no exception escapes, and a
 * rejected load leaves what it loads into as it was.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/drl_engine.hh"
#include "core/experiment.hh"
#include "storage/bluesky.hh"
#include "util/crc32.hh"
#include "util/fs_atomic.hh"
#include "util/logging.hh"
#include "util/state_io.hh"

namespace geo {
namespace core {
namespace {

constexpr size_t kMutants = 1000;

/** Deterministic byte mutator over one seed text. */
class Mutator
{
  public:
    Mutator(std::string seed, uint64_t rngSeed)
        : seed_(std::move(seed)), gen_(rngSeed)
    {
        // Lines grouped by their first token, so that every key is
        // as likely a target as any other, however many lines it has.
        std::map<std::string, size_t> group;
        for (size_t at = 0; at < seed_.size();) {
            size_t end = seed_.find('\n', at);
            if (end == std::string::npos)
                end = seed_.size();
            size_t stop = std::min(seed_.find(' ', at), end);
            std::string head = seed_.substr(at, stop - at);
            auto [it, fresh] = group.emplace(head, lines_.size());
            if (fresh)
                lines_.emplace_back();
            lines_[it->second].push_back(at);
            at = end + 1;
        }
    }

    /** The seed text with one to three mutations. */
    std::string
    next()
    {
        std::string text = seed_;
        for (size_t n = 1 + gen_() % 3; n > 0; --n)
            mutateOnce(text);
        return text;
    }

  private:
    void
    mutateOnce(std::string &text)
    {
        size_t at = text.empty() ? 0 : gen_() % text.size();
        switch (gen_() % 5) {
        case 0: // flip one bit
            if (!text.empty())
                text[at] = static_cast<char>(text[at] ^ (1 << gen_() % 8));
            break;
        case 1: // insert a byte
            text.insert(at, 1, static_cast<char>(gen_()));
            break;
        case 2: // delete a byte
            if (!text.empty())
                text.erase(at, 1);
            break;
        case 3: { // duplicate a line
            size_t start = lineStart(text);
            size_t end = text.find('\n', start);
            end = end == std::string::npos ? text.size() : end + 1;
            text.insert(start, text.substr(start, end - start));
            break;
        }
        default: { // replace a line's first number with a huge one
            static const char *const huge[] = {
                "18446744073709551615", "99999999999999999999",
                "1000000000000000000", "999999999999999"};
            size_t start = lineStart(text);
            size_t digit = text.find_first_of("0123456789",
                                              text.find(' ', start));
            if (digit == std::string::npos)
                break;
            size_t end = text.find_first_not_of("0123456789", digit);
            if (end == std::string::npos)
                end = text.size();
            text.replace(digit, end - digit, huge[gen_() % std::size(huge)]);
            break;
        }
        }
    }

    /** Start of a random line of the seed (clamped to `text`). */
    size_t
    lineStart(const std::string &text)
    {
        const std::vector<size_t> &group = lines_[gen_() % lines_.size()];
        size_t start = group[gen_() % group.size()];
        return std::min(start, text.size());
    }

    std::string seed_;
    std::mt19937_64 gen_;
    std::vector<std::vector<size_t>> lines_;
};

/** Keeps the thousands of expected rejections out of the log. */
class QuietLog
{
  public:
    QuietLog() : saved_(logLevel()) { setLogLevel(LogLevel::Quiet); }
    ~QuietLog() { setLogLevel(saved_); }

  private:
    LogLevel saved_;
};

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
