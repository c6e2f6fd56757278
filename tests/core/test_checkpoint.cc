/**
 * @file
 * Tests for the checkpoint subsystem: file format round-trip,
 * retention, corruption rejection with fallback, and an in-process
 * save/resume of the full pipeline that must reproduce an
 * uninterrupted run bit-for-bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "core/geomancy.hh"
#include "core/policies.hh"
#include "storage/bluesky.hh"
#include "storage/fault_injector.hh"
#include "util/crc32.hh"
#include "util/fs_atomic.hh"
#include "util/metrics.hh"
#include "util/state_io.hh"

namespace geo {
namespace core {
namespace {

/** Unique scratch directory, removed on destruction. */
struct TempDir
{
    std::string path;

    explicit TempDir(const char *stem)
    {
        path = (std::filesystem::temp_directory_path() /
                (std::string("geo_test_") + stem))
                   .string();
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(Checkpoint, WriteReadRoundTrip)
{
    TempDir dir("ckpt_rt");
    CheckpointManager manager({dir.path});
    std::string payload = "geo.cycles 3\ngeo.rng 1 2 3 4\n";
    ASSERT_TRUE(manager.write(3, payload));

    CheckpointHeader header;
    std::string out;
    ASSERT_TRUE(CheckpointManager::read(manager.pathFor(3), header, out));
    EXPECT_EQ(header.cycle, 3u);
    EXPECT_EQ(header.bytes, payload.size());
    EXPECT_EQ(header.crc, util::crc32(payload));
    EXPECT_EQ(out, payload);
}

TEST(Checkpoint, RetentionPrunesOldest)
{
    TempDir dir("ckpt_keep");
    CheckpointManager manager({dir.path});
    const uint64_t written = CheckpointManager::kKeep + 2;
    for (uint64_t cycle = 1; cycle <= written; ++cycle) {
        ASSERT_TRUE(manager.write(cycle, "payload"));
        EXPECT_EQ(manager.availableCycles().size(),
                  std::min<size_t>(cycle, CheckpointManager::kKeep));
    }
    // The newest kKeep survive.
    std::vector<uint64_t> cycles = manager.availableCycles();
    ASSERT_EQ(cycles.size(), CheckpointManager::kKeep);
    for (size_t i = 0; i < cycles.size(); ++i)
        EXPECT_EQ(cycles[i], written - CheckpointManager::kKeep + 1 + i);
    EXPECT_FALSE(std::filesystem::exists(manager.pathFor(1)));
}

TEST(Checkpoint, TamperedPayloadRejected)
{
    TempDir dir("ckpt_crc");
    CheckpointManager manager({dir.path});
    ASSERT_TRUE(manager.write(1, "the payload to protect"));

    std::string blob;
    ASSERT_TRUE(util::readFileAll(manager.pathFor(1), blob));
    blob[blob.size() - 3] ^= 0x01; // one bit, inside the payload
    {
        std::ofstream os(manager.pathFor(1),
                         std::ios::binary | std::ios::trunc);
        os << blob;
    }

    auto &rejected =
        util::MetricRegistry::global().counter("checkpoint.crc_rejected");
    uint64_t before = rejected.value();
    CheckpointHeader header;
    std::string payload;
    EXPECT_FALSE(CheckpointManager::read(manager.pathFor(1), header, payload));
    EXPECT_GT(rejected.value(), before);
}

TEST(Checkpoint, TruncatedFileRejected)
{
    TempDir dir("ckpt_trunc");
    CheckpointManager manager({dir.path});
    ASSERT_TRUE(manager.write(1, std::string(100, 'x')));

    std::string blob;
    ASSERT_TRUE(util::readFileAll(manager.pathFor(1), blob));
    {
        std::ofstream os(manager.pathFor(1),
                         std::ios::binary | std::ios::trunc);
        os << blob.substr(0, blob.size() - 40);
    }
    CheckpointHeader header;
    std::string payload;
    EXPECT_FALSE(CheckpointManager::read(manager.pathFor(1), header, payload));
}

TEST(Checkpoint, BadMagicRejected)
{
    TempDir dir("ckpt_magic");
    std::string path = dir.path + "/ckpt-1.geo";
    ASSERT_TRUE(util::writeFileAtomic(path, "not-a-checkpoint\njunk\n"));
    CheckpointHeader header;
    std::string payload;
    EXPECT_FALSE(CheckpointManager::read(path, header, payload));
}

TEST(Checkpoint, LoadLatestFallsBackPastCorrupt)
{
    TempDir dir("ckpt_fallback");
    CheckpointManager manager({dir.path});
    ASSERT_TRUE(manager.write(1, "older snapshot"));
    ASSERT_TRUE(manager.write(2, "newer snapshot"));

    std::string blob;
    ASSERT_TRUE(util::readFileAll(manager.pathFor(2), blob));
    blob[blob.size() / 2] ^= 0x40;
    {
        std::ofstream os(manager.pathFor(2),
                         std::ios::binary | std::ios::trunc);
        os << blob;
    }

    CheckpointHeader header;
    std::string payload, path;
    ASSERT_TRUE(manager.loadLatest(header, payload, &path));
    EXPECT_EQ(header.cycle, 1u);
    EXPECT_EQ(payload, "older snapshot");
    EXPECT_EQ(path, manager.pathFor(1));
}

TEST(Checkpoint, LoadLatestFailsWhenEverythingCorrupt)
{
    TempDir dir("ckpt_allbad");
    CheckpointManager manager({dir.path});
    ASSERT_TRUE(manager.write(1, "snapshot"));
    std::string blob;
    ASSERT_TRUE(util::readFileAll(manager.pathFor(1), blob));
    blob[blob.size() - 1] ^= 0xff;
    {
        std::ofstream os(manager.pathFor(1),
                         std::ios::binary | std::ios::trunc);
        os << blob;
    }
    CheckpointHeader header;
    std::string payload;
    EXPECT_FALSE(manager.loadLatest(header, payload));
}

TEST(Checkpoint, ClearRemovesEverySnapshot)
{
    TempDir dir("ckpt_clear");
    CheckpointManager manager({dir.path});
    ASSERT_TRUE(manager.write(1, "a"));
    ASSERT_TRUE(manager.write(2, "b"));
    manager.clear();
    EXPECT_TRUE(manager.availableCycles().empty());
}

// ---------------------------------------------------------------------
// Full-pipeline save/resume, in-process: run the fig5a-style dynamic
// experiment with checkpointing, abandon it two runs past a snapshot
// (mimicking a crash whose post-cut work must be discarded), resume
// from the snapshot and compare against an uninterrupted run.

struct PipelineOutput
{
    bool completed = false;
    std::vector<double> series;
    double avg = 0.0;
    double simTime = 0.0;
};

/**
 * One pipeline timeline. `abandonAfter` > 0 stops the experiment two
 * measured runs past that snapshot (the extra runs' ReplayDB rows are
 * exactly what rewindTo must discard on resume).
 */
PipelineOutput
runPipeline(const std::string &dir, size_t abandonAfter, bool resume)
{
    PipelineOutput out;
    CheckpointManager manager({dir});
    std::string db_path = dir + "/replay.db";
    if (!resume) {
        manager.clear();
        ReplayDb::removeFiles(db_path);
    }

    auto system = storage::makeBlueskySystem(7);
    workload::Belle2Workload workload(*system);
    storage::FaultInjector injector(*system, {});
    system->attachFaultInjector(&injector);

    GeomancyConfig gconfig;
    gconfig.drl.epochs = 2;
    Geomancy geomancy(*system, workload.files(), gconfig, db_path);
    GeomancyDynamicPolicy policy(geomancy);

    ExperimentConfig config;
    config.warmupRuns = 2;
    config.measuredRuns = 8;
    config.cadence = 2;
    config.seed = 99;
    ExperimentRunner runner(*system, workload, policy, config);

    if (resume) {
        CheckpointHeader header;
        std::string payload;
        if (!manager.loadLatest(header, payload)) {
            ADD_FAILURE() << "no valid snapshot in " << dir;
            return out;
        }
        std::istringstream is(payload);
        util::StateReader r(is);
        geomancy.loadState(r);
        injector.loadState(r);
        workload.loadState(r);
        runner.loadState(r);
        if (!r.ok()) {
            ADD_FAILURE() << "snapshot rejected: " << r.error();
            return out;
        }
        geomancy.controlAgent().restorePending();
    }

    runner.setCheckpointHook([&](size_t done) {
        // Serialize every run (saveState flushes the agents, and flush
        // cadence must match across timelines) but stop committing
        // snapshots past the abandon point so the resume has work to
        // recover.
        std::ostringstream os;
        util::StateWriter w(os);
        geomancy.saveState(w);
        injector.saveState(w);
        workload.saveState(w);
        runner.saveState(w);
        if (!abandonAfter || done <= abandonAfter)
            manager.write(done, os.str());
    });

    while (runner.step()) {
        if (abandonAfter && runner.measuredRunsDone() >= abandonAfter + 2)
            return out; // "crash": leave post-snapshot DB rows behind
    }
    ExperimentResult result = runner.finish();
    out.completed = true;
    out.series = result.throughputSeries;
    out.avg = result.averageThroughput;
    out.simTime = system->clock().now();
    return out;
}

TEST(CheckpointPipeline, ResumeReproducesUninterruptedRunExactly)
{
    TempDir ref_dir("ckpt_pipe_ref");
    TempDir crash_dir("ckpt_pipe_crash");

    PipelineOutput ref = runPipeline(ref_dir.path, 0, false);
    ASSERT_TRUE(ref.completed);
    ASSERT_FALSE(ref.series.empty());

    PipelineOutput interrupted = runPipeline(crash_dir.path, 3, false);
    EXPECT_FALSE(interrupted.completed);

    PipelineOutput resumed = runPipeline(crash_dir.path, 0, true);
    ASSERT_TRUE(resumed.completed);

    ASSERT_EQ(resumed.series.size(), ref.series.size());
    for (size_t i = 0; i < ref.series.size(); ++i)
        ASSERT_EQ(resumed.series[i], ref.series[i]) << "sample " << i;
    EXPECT_EQ(resumed.avg, ref.avg);
    EXPECT_EQ(resumed.simTime, ref.simTime);
}

} // namespace
} // namespace core
} // namespace geo
