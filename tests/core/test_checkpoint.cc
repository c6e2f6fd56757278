/**
 * @file
 * Tests for the checkpoint subsystem: file format round-trip,
 * retention, corruption rejection with fallback, the DurableRun resume
 * protocol, and an in-process save/resume of the full pipeline that
 * must reproduce an uninterrupted run bit-for-bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hh"
#include "core/durable_run.hh"
#include "core/experiment.hh"
#include "core/geomancy.hh"
#include "core/policies.hh"
#include "core/shard_coordinator.hh"
#include "storage/bluesky.hh"
#include "storage/fault_injector.hh"
#include "util/crc32.hh"
#include "util/fs_atomic.hh"
#include "util/metrics.hh"
#include "util/state_io.hh"
#include "util/supervise.hh"

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

/** Flip one payload bit, so the file fails its CRC. */
void
corrupt(const std::string &path)
{
    std::string blob;
    ASSERT_TRUE(util::readFileAll(path, blob));
    blob[blob.size() - 2] ^= 0x01;
    ASSERT_TRUE(util::writeFileAtomic(path, blob));
}

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
    corrupt(manager.pathFor(1));

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
    corrupt(manager.pathFor(2));

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
    corrupt(manager.pathFor(1));

    CheckpointHeader header;
    std::string payload;
    EXPECT_FALSE(manager.loadLatest(header, payload));
}

// ---------------------------------------------------------------------
// DurableRun: what a fresh start deletes, restore, kill points.

TEST(DurableRun, FreshStartDeletesWhatAResumeKeeps)
{
    TempDir dir("durable_files");
    std::string db = dir.path + "/replay.db";
    std::vector<std::string> files = {dir.path + "/ledger.ndjson"};
    for (const std::string &path : {db, ShardCoordinator::dbPath(db, 0),
                                     ShardCoordinator::dbPath(db, 1)})
        for (const char *suffix : {"", "-journal", "-wal", "-shm"})
            files.push_back(path + suffix);
    CheckpointManager manager({dir.path});
    ASSERT_TRUE(manager.write(2, "stale") && manager.write(3, "stale"));
    for (const std::string &path : files)
        ASSERT_TRUE(util::writeFileAtomic(path, "stale"));

    for (bool resume : {true, false}) {
        DurableRun run(dir.path, resume, {files[0]}, 2);
        EXPECT_EQ(run.dbPath(), db);
        EXPECT_EQ(manager.availableCycles().size(), resume ? 2u : 0u);
        for (const std::string &path : files)
            EXPECT_EQ(std::filesystem::exists(path), resume) << path;
    }
}

TEST(DurableRun, RestoreFallsBackAndLoadsNothingWithoutAValidSnapshot)
{
    TempDir dir("durable_restore");
    DurableRun run(dir.path, true);
    auto system = storage::makeBlueskySystem(7);
    workload::Belle2Workload workload(*system);
    Geomancy geomancy(*system, workload.files(), {}, run.dbPath());
    std::vector<uint64_t> loaded;
    auto load = [&](util::StateReader &r) { loaded.push_back(r.u64("k")); };

    CheckpointManager manager({dir.path});
    ASSERT_TRUE(manager.write(1, "k 1\n") && manager.write(2, "k 2\n"));
    corrupt(manager.pathFor(2));
    MoveAttemptRecord failed; // owed a retry once the queue is rebuilt
    failed.outcome = AttemptOutcome::Failed;
    geomancy.replayDb().insertMoveAttempt(failed);
    DurableRun::Restored restored = run.restore(load, {&geomancy});
    EXPECT_TRUE(restored.loaded);
    EXPECT_EQ(restored.path, manager.pathFor(1));
    EXPECT_EQ(restored.header.cycle, 1u);
    EXPECT_EQ(loaded, std::vector<uint64_t>{1});
    EXPECT_EQ(geomancy.controlAgent().pendingRetries(), 1u);

    // Nothing validates: no load, and the attempt goes on as a fresh
    // start with no snapshots and an empty ReplayDB.
    corrupt(manager.pathFor(1));
    geomancy.replayDb().insertAccesses({PerfRecord{}});
    EXPECT_FALSE(run.restore(load, {&geomancy}).loaded);
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(manager.availableCycles().empty());
    EXPECT_EQ(geomancy.replayDb().accessCount(), 0);
}

TEST(DurableRunDeathTest, SnapshotThatFailsToLoadIsFatalAndNamed)
{
    TempDir dir("durable_mismatch");
    DurableRun run(dir.path, true);
    ASSERT_TRUE(CheckpointManager({dir.path}).write(4, "other 1\n"));
    EXPECT_EXIT(run.restore([](util::StateReader &r) { r.u64("k"); }, {}),
                testing::ExitedWithCode(1), "ckpt-4\\.geo");
}

TEST(DurableRunDeathTest, KillPointFiresOnlyAfterAFreshFirstAttemptWrites)
{
    TempDir dir("durable_commit");
    auto system = storage::makeBlueskySystem(7);
    auto commit = [&](DurableRun &run, int attempt, bool resume) {
        storage::FaultInjector injector(*system, {});
        DurableRun::armKillPoint(injector, storage::CrashPoint::AfterCommit,
                                 0, attempt, resume);
        return run.commit(1, "payload", injector);
    };

    // A file where the snapshot directory was: the write fails, so even
    // an armed attempt lives on.
    DurableRun blocked(dir.path + "/gone", false);
    std::filesystem::remove(dir.path + "/gone");
    ASSERT_TRUE(util::writeFileAtomic(dir.path + "/gone", "a file"));
    EXPECT_FALSE(commit(blocked, 0, false));

    // Restarted and resumed attempts run disarmed; a fresh first one
    // dies once its snapshot is durable.
    DurableRun run(dir.path, false);
    EXPECT_TRUE(commit(run, 0, true));
    EXPECT_TRUE(commit(run, 1, false));
    EXPECT_TRUE(commit(run, 1, true));
    std::filesystem::remove(CheckpointManager({dir.path}).pathFor(1));
    EXPECT_EXIT(commit(run, 0, false),
                testing::ExitedWithCode(util::kCrashExitCode), "");
    EXPECT_EQ(CheckpointManager({dir.path}).availableCycles(),
              std::vector<uint64_t>{1});
}

// ---------------------------------------------------------------------
// Full-pipeline save/resume, in-process: run the fig5a-style dynamic
// experiment with checkpointing, abandon it two runs past a snapshot
// (mimicking a crash whose post-cut work must be discarded), resume
// from the snapshot and compare against an uninterrupted run.

/** Dynamic Geomancy that counts the ReplayDB cache fills of each
 *  decision after the first one that got past the history check. */
class FillCountingPolicy : public PlacementPolicy
{
  public:
    explicit FillCountingPolicy(Geomancy &geomancy) : inner_(geomancy) {}

    std::string name() const override { return inner_.name(); }

    size_t
    rebalance(PolicyContext &context) override
    {
        uint64_t before = fills_.value();
        size_t moved = inner_.rebalance(context);
        if (decided_)
            fillsAfterFirst.push_back(fills_.value() - before);
        decided_ = decided_ || !inner_.lastReport().skipped;
        return moved;
    }

    std::vector<uint64_t> fillsAfterFirst;

  private:
    GeomancyDynamicPolicy inner_;
    util::Counter &fills_ =
        util::MetricRegistry::global().counter("replaydb.cache_fills");
    bool decided_ = false;
};

/** How long a pipeline timeline runs and where it is cut. */
struct Timeline
{
    size_t measuredRuns = 8;
    size_t cadence = 2;
    size_t snapshotRun = 3;     ///< the snapshot an abandoned run resumes from
    size_t windowPerDevice = 0; ///< 0 keeps the daemon's default
};

struct PipelineOutput
{
    bool completed = false;
    std::vector<double> series;
    double avg = 0.0;
    double simTime = 0.0;
    std::string snapshot; ///< the last run's checkpoint payload
    std::string ledger;
    TrainingBatch cutBatch; ///< the batch the DB holds at the snapshot
    int64_t cutRows = 0;    ///< the DB's rows there (uninterrupted run)
    std::vector<uint64_t> fillsAfterFirst;
};

/**
 * One pipeline timeline. `abandon` stops the experiment two measured
 * runs past the `snapshotRun` snapshot (the extra runs' ReplayDB rows
 * are exactly what rewindTo must discard on resume). `resume` first
 * reads those rows into the ReplayDB's caches, then restores the
 * snapshot and builds the training batch; an uninterrupted timeline
 * builds it right after committing that snapshot.
 */
PipelineOutput
runPipeline(const std::string &dir, const Timeline &timeline, bool abandon,
            bool resume)
{
    PipelineOutput out;
    std::string ledger_path = dir + "/ledger.ndjson";
    DurableRun run(dir, resume, {ledger_path});

    auto system = storage::makeBlueskySystem(7);
    workload::Belle2Workload workload(*system);
    storage::FaultInjector injector(*system, {});
    system->attachFaultInjector(&injector);

    GeomancyConfig gconfig;
    gconfig.drl.epochs = 2;
    if (timeline.windowPerDevice > 0)
        gconfig.daemon.windowPerDevice = timeline.windowPerDevice;
    Geomancy geomancy(*system, workload.files(), gconfig, run.dbPath());
    geomancy.attachLedger(ledger_path);
    FillCountingPolicy policy(geomancy);

    ExperimentConfig config;
    config.warmupRuns = 2;
    config.measuredRuns = timeline.measuredRuns;
    config.cadence = timeline.cadence;
    config.seed = 99;
    ExperimentRunner runner(*system, workload, policy, config);

    std::vector<storage::DeviceId> devices = system->deviceIds();
    if (resume) {
        EXPECT_GT(geomancy.daemon().buildTrainingBatch(devices).dataset.size(),
                  0u);
        PerfRecord latest;
        for (storage::FileId file : geomancy.managedFiles())
            geomancy.replayDb().latestAccessForFile(file, latest);
        auto load = [&](util::StateReader &r) {
            geomancy.loadState(r);
            injector.loadState(r);
            workload.loadState(r);
            runner.loadState(r);
        };
        if (!run.restore(load, {&geomancy}).loaded) {
            ADD_FAILURE() << "no valid snapshot in " << dir;
            return out;
        }
        out.cutBatch = geomancy.daemon().buildTrainingBatch(devices);
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
        out.snapshot = os.str();
        if (!abandon || done <= timeline.snapshotRun)
            run.commit(done, out.snapshot, injector);
        if (!abandon && !resume && done == timeline.snapshotRun) {
            out.cutBatch = geomancy.daemon().buildTrainingBatch(devices);
            out.cutRows = geomancy.replayDb().accessCount();
        }
    });

    while (runner.step()) {
        if (abandon && runner.measuredRunsDone() >= timeline.snapshotRun + 2)
            return out; // "crash": leave post-snapshot DB rows behind
    }
    ExperimentResult result = runner.finish();
    out.completed = true;
    out.series = result.throughputSeries;
    out.avg = result.averageThroughput;
    out.simTime = system->clock().now();
    out.fillsAfterFirst = policy.fillsAfterFirst;
    EXPECT_TRUE(util::readFileAll(ledger_path, out.ledger));
    return out;
}

/** The uninterrupted timeline, then the abandoned one resumed; `stem`
 *  names their scratch directories. */
std::pair<PipelineOutput, PipelineOutput>
runAndResume(const Timeline &timeline, const std::string &stem)
{
    TempDir ref_dir((stem + "_ref").c_str());
    TempDir crash_dir((stem + "_crash").c_str());
    PipelineOutput ref = runPipeline(ref_dir.path, timeline, false, false);
    PipelineOutput interrupted =
        runPipeline(crash_dir.path, timeline, true, false);
    EXPECT_FALSE(interrupted.completed);
    PipelineOutput resumed =
        runPipeline(crash_dir.path, timeline, false, true);
    return {std::move(ref), std::move(resumed)};
}

void
expectSameOutcome(const PipelineOutput &resumed, const PipelineOutput &ref)
{
    ASSERT_TRUE(ref.completed);
    ASSERT_FALSE(ref.series.empty());
    ASSERT_TRUE(resumed.completed);

    ASSERT_EQ(resumed.series.size(), ref.series.size());
    for (size_t i = 0; i < ref.series.size(); ++i)
        ASSERT_EQ(resumed.series[i], ref.series[i]) << "sample " << i;
    EXPECT_EQ(resumed.avg, ref.avg);
    EXPECT_EQ(resumed.simTime, ref.simTime);
    EXPECT_FALSE(ref.ledger.empty());
    EXPECT_EQ(resumed.ledger, ref.ledger);
    EXPECT_EQ(resumed.snapshot, ref.snapshot);
}

void
expectSameMatrix(const nn::Matrix &got, const nn::Matrix &want,
                 const char *what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got.data()[i], want.data()[i]) << what << " at " << i;
}

void
expectSameRanges(const trace::MinMaxNormalizer &got,
                 const trace::MinMaxNormalizer &want, const char *what)
{
    ASSERT_EQ(got.columns(), want.columns()) << what;
    for (size_t c = 0; c < want.columns(); ++c) {
        EXPECT_EQ(got.columnMin(c), want.columnMin(c)) << what << c;
        EXPECT_EQ(got.columnMax(c), want.columnMax(c)) << what << c;
    }
}

TEST(CheckpointPipeline, ResumeReproducesUninterruptedRunExactly)
{
    auto [ref, resumed] = runAndResume(Timeline{}, "ckpt_pipe");
    expectSameOutcome(resumed, ref);
}

// The snapshot falls in the middle of a training window: some device's
// window has wrapped, so the batch leaves older rows out, and the
// resumed process holds the abandoned run's rows past the cut in the
// ReplayDB's caches when the restore rewinds it.
TEST(CheckpointPipeline, RestoreMidWindowTrainsOnTheUninterruptedBatch)
{
    Timeline mid_window;
    mid_window.measuredRuns = 10;
    mid_window.cadence = 1;
    mid_window.snapshotRun = 5;
    mid_window.windowPerDevice = 300;
    auto [ref, resumed] = runAndResume(mid_window, "ckpt_mid_window");
    expectSameOutcome(resumed, ref);

    ASSERT_GT(ref.cutBatch.dataset.size(), 0u);
    ASSERT_LT(static_cast<int64_t>(ref.cutBatch.dataset.size()),
              ref.cutRows);
    expectSameMatrix(resumed.cutBatch.dataset.inputs,
                     ref.cutBatch.dataset.inputs, "inputs");
    expectSameMatrix(resumed.cutBatch.dataset.targets,
                     ref.cutBatch.dataset.targets, "targets");
    expectSameRanges(resumed.cutBatch.featureNorm, ref.cutBatch.featureNorm,
                     "feature column ");
    expectSameRanges(resumed.cutBatch.targetNorm, ref.cutBatch.targetNorm,
                     "target column ");

    // Once the first decision has read the window and every file's
    // latest row, later decisions find them all in memory.
    for (const PipelineOutput *timeline : {&ref, &resumed}) {
        ASSERT_GT(timeline->fillsAfterFirst.size(), 2u);
        for (size_t d = 0; d < timeline->fillsAfterFirst.size(); ++d)
            EXPECT_EQ(timeline->fillsAfterFirst[d], 0u)
                << "decision " << d + 1 << " after the first";
    }
}

} // namespace
} // namespace core
} // namespace geo
