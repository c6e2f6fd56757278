/**
 * @file
 * DecisionLedger unit tests: recording-only identity (a run with the
 * ledger attached reproduces a run without one bit-for-bit), the
 * crash-exact byte cursor across save/rewind/resume, cumulative
 * counter deltas, and the append-mode flush path.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/decision_ledger.hh"
#include "core/experiment.hh"
#include "core/geomancy.hh"
#include "core/policies.hh"
#include "storage/bluesky.hh"
#include "util/fs_atomic.hh"
#include "util/parse.hh"
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

/** One deterministic synthetic cycle's worth of recording calls. */
void
recordSyntheticCycle(DecisionLedger &ledger, uint64_t cycle)
{
    ledger.beginCycle(cycle, 10.0 * static_cast<double>(cycle), false,
                      false);
    ledger.recordPhase("monitor", 0.125, 1.0);
    ledger.recordPhase("train", 0.5, 2.0);
    std::array<double, kLiveFeatureCount> features = {1.0, 2.0, 3.0,
                                                      4.0, 5.0, 6.0};
    std::vector<LedgerScore> scores = {{0, 100.0, 2}, {1, 200.0, 1}};
    ledger.recordCandidate(3, 0, features, scores, "selected", 1, 0.25,
                           false, true);
    ledger.recordCandidate(7, 1, features, scores, "below_min_gain", 0,
                           0.0, false, false);
    AppliedMove move;
    move.file = 3;
    move.from = 0;
    move.to = 1;
    ledger.recordOutcome(move);
    LedgerCycleSummary summary;
    summary.acted = true;
    summary.proposed = 1;
    summary.applied = 1;
    summary.admitted = ledger.advanceCumulative(0, cycle * 100);
    summary.quarantined = ledger.advanceCumulative(1, cycle * 3);
    ledger.endCycle(summary);
}

/** Fig5a-style pin: attaching a ledger must not change one decision.
 *  The ledger consumes no randomness and feeds nothing back, so two
 *  same-seed experiment runs — with and without a ledger — have to
 *  produce identical throughput series and move logs. */
TEST(DecisionLedger, RecordingOnlyIdentity)
{
    TempDir dir("ledger_identity");

    auto runOnce = [&](bool with_ledger) {
        auto system = storage::makeBlueskySystem(7);
        workload::Belle2Workload workload(*system);
        GeomancyConfig config;
        config.drl.epochs = 6;
        config.minHistory = 200;
        Geomancy geomancy(*system, workload.files(), config);
        if (with_ledger)
            geomancy.attachLedger(dir.path + "/ledger.ndjson");
        GeomancyDynamicPolicy policy(geomancy);
        ExperimentConfig econfig;
        econfig.warmupRuns = 1;
        econfig.measuredRuns = 5;
        econfig.cadence = 2;
        econfig.seed = 11;
        ExperimentRunner runner(*system, workload, policy, econfig);
        return runner.run();
    };

    ExperimentResult without = runOnce(false);
    ExperimentResult with = runOnce(true);

    ASSERT_EQ(without.totalAccesses, with.totalAccesses);
    ASSERT_EQ(without.throughputSeries.size(),
              with.throughputSeries.size());
    for (size_t i = 0; i < without.throughputSeries.size(); ++i)
        ASSERT_DOUBLE_EQ(without.throughputSeries[i],
                         with.throughputSeries[i])
            << "diverged at access " << i;
    EXPECT_EQ(without.filesMoved, with.filesMoved);
    EXPECT_EQ(without.bytesMoved, with.bytesMoved);
    ASSERT_EQ(without.moveEvents.size(), with.moveEvents.size());

    // And the ledger actually recorded the run.
    std::string text;
    ASSERT_TRUE(util::readFileAll(dir.path + "/ledger.ndjson", text));
    EXPECT_NE(text.find("\"schema\":\"geo-ledger-1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"t\":\"cycle\""), std::string::npos);
}

/** Every cycle's phase rows come in cycle order — a prefix of monitor,
 *  train, propose, migrate, as far as the cycle got — and carry the
 *  phase's guardrail budget: the configured migrate seconds on the
 *  migrate row, 0 on every other row and with no budget configured. */
TEST(DecisionLedger, PhaseRowsInCycleOrderWithBudgets)
{
    TempDir dir("ledger_phases");
    const std::vector<std::string> order = {"monitor", "train", "propose",
                                            "migrate"};
    const std::regex phase_row(
        R"re("t":"phase","cycle":(\d+),"name":"(\w+)",)re"
        R"re("seconds":[^,]+,"budget":([^,]+),)re");
    for (double migrate_budget : {4000.0, 0.0}) {
        const bool budgeted = migrate_budget > 0.0;
        SCOPED_TRACE(budgeted ? "migrate budget" : "no budget");
        std::string path = dir.path + (budgeted ? "/budget" : "/none");
        auto system = storage::makeBlueskySystem(7);
        workload::Belle2Workload workload(*system);
        GeomancyConfig config;
        config.drl.epochs = 4;
        config.minHistory = 200;
        config.explorationRate = 1.0; // every acting cycle migrates
        config.guardrails.migrateBudgetSeconds = migrate_budget;
        Geomancy geomancy(*system, workload.files(), config);
        geomancy.attachLedger(path);
        for (int cycle = 0; cycle < 3; ++cycle) {
            workload.executeRun();
            geomancy.runCycle();
        }

        std::string text;
        ASSERT_TRUE(util::readFileAll(path, text));
        std::map<std::string, size_t> rows_per_cycle;
        bool migrated = false;
        std::sregex_iterator it(text.begin(), text.end(), phase_row), end;
        for (; it != end; ++it) {
            const std::smatch &row = *it;
            size_t &index = rows_per_cycle[row[1]];
            ASSERT_LT(index, order.size()) << row[0];
            EXPECT_EQ(row[2], order[index]) << row[0];
            double budget = -1.0;
            ASSERT_TRUE(util::parseDouble(row[3], budget)) << row[0];
            EXPECT_EQ(budget, row[2] == "migrate" ? migrate_budget : 0.0)
                << row[0];
            migrated = migrated || row[2] == "migrate";
            ++index;
        }
        EXPECT_EQ(rows_per_cycle.size(), 3u);
        EXPECT_TRUE(migrated);
    }
}

/** The checkpointed byte cursor makes crash/rewind/resume ledgers
 *  byte-identical to an uninterrupted run: rows written after the cut
 *  (including a torn half-appended tail) are truncated away on
 *  restore and re-produced by the replayed cycles — no duplicates, no
 *  holes. */
TEST(DecisionLedger, CursorExactAcrossCrashRewindResume)
{
    TempDir dir("ledger_cursor");
    std::string ref_path = dir.path + "/ref.ndjson";
    std::string crash_path = dir.path + "/crash.ndjson";

    // Reference: three uninterrupted cycles.
    {
        DecisionLedger ledger(ref_path);
        for (uint64_t cycle = 1; cycle <= 3; ++cycle)
            recordSyntheticCycle(ledger, cycle);
    }
    std::string reference, recovered;
    ASSERT_TRUE(util::readFileAll(ref_path, reference));
    ASSERT_FALSE(reference.empty());

    // Crashed run: checkpoint after cycle 2, then cycle 3 happens but
    // its checkpoint never lands; the "crash" also leaves a torn
    // partial row appended to the file.
    std::ostringstream cut;
    {
        DecisionLedger ledger(crash_path);
        recordSyntheticCycle(ledger, 1);
        recordSyntheticCycle(ledger, 2);
        util::StateWriter writer(cut);
        ledger.saveState(writer);
        recordSyntheticCycle(ledger, 3);
    }
    {
        std::ofstream os(crash_path,
                         std::ios::binary | std::ios::app);
        os << "{\"t\":\"cycle_start\",\"cyc"; // torn mid-append tail
    }
    ASSERT_TRUE(util::readFileAll(crash_path, recovered));
    ASSERT_NE(recovered, reference);

    // Resume: a fresh process restores the cut and replays cycle 3.
    {
        DecisionLedger ledger(crash_path);
        std::istringstream is(cut.str());
        util::StateReader reader(is);
        ledger.loadState(reader);
        recordSyntheticCycle(ledger, 3);
    }
    ASSERT_TRUE(util::readFileAll(crash_path, recovered));
    EXPECT_EQ(recovered, reference);

    // No sequence number repeats or gaps in the recovered file.
    std::istringstream lines(recovered);
    std::string line;
    uint64_t expect_seq = 0;
    bool first = true;
    while (std::getline(lines, line)) {
        if (first) { // schema header has no seq
            first = false;
            continue;
        }
        size_t pos = line.rfind("\"seq\":");
        ASSERT_NE(pos, std::string::npos) << line;
        uint64_t seq = std::stoull(line.substr(pos + 6));
        EXPECT_EQ(seq, expect_seq + 1) << line;
        expect_seq = seq;
    }
    EXPECT_GT(expect_seq, 0u);
}

/** advanceCumulative turns checkpointed monotone counters into
 *  per-cycle deltas that replay exactly: the cursor survives
 *  save/load, and a counter that appears to run backwards (fresh
 *  in-memory state after a restore) yields zero, not underflow. */
TEST(DecisionLedger, AdvanceCumulativeDeltas)
{
    TempDir dir("ledger_cumulative");
    DecisionLedger ledger(dir.path + "/l.ndjson");

    EXPECT_EQ(ledger.advanceCumulative(0, 10), 10u);
    EXPECT_EQ(ledger.advanceCumulative(0, 25), 15u);
    EXPECT_EQ(ledger.advanceCumulative(1, 7), 7u);
    // Regression below the cursor must clamp to zero (and re-anchor
    // the cursor at the observed value).
    EXPECT_EQ(ledger.advanceCumulative(0, 5), 0u);
    EXPECT_EQ(ledger.advanceCumulative(0, 8), 3u);

    std::ostringstream os;
    util::StateWriter writer(os);
    ledger.saveState(writer);

    DecisionLedger restored(dir.path + "/l2.ndjson");
    std::istringstream is(os.str());
    util::StateReader reader(is);
    restored.loadState(reader);
    // Cursors rode along in the checkpoint (slot 0 at 8, slot 1 at 7).
    EXPECT_EQ(restored.advanceCumulative(0, 30), 22u);
    EXPECT_EQ(restored.advanceCumulative(1, 9), 2u);
}

/** Steady-state flushes append rather than rewrite, but the resulting
 *  file must be indistinguishable from a full rewrite — including
 *  when something external replaces the file mid-run (the size guard
 *  refuses the append and falls back to a rewrite). */
TEST(DecisionLedger, AppendFlushSurvivesExternalTruncation)
{
    TempDir dir("ledger_append");
    std::string path = dir.path + "/l.ndjson";
    DecisionLedger ledger(path);

    recordSyntheticCycle(ledger, 1);
    std::string after_one;
    ASSERT_TRUE(util::readFileAll(path, after_one));
    ASSERT_FALSE(after_one.empty());

    // Clobber the file behind the ledger's back.
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "garbage";
    }
    recordSyntheticCycle(ledger, 2);

    // The flush must have detected the mismatch and rewritten whole.
    std::string text;
    ASSERT_TRUE(util::readFileAll(path, text));
    EXPECT_EQ(text.compare(0, after_one.size(), after_one), 0);
    EXPECT_EQ(text.find("garbage"), std::string::npos);
    EXPECT_NE(text.find("\"cycle\":2"), std::string::npos);
}

} // namespace
} // namespace core
} // namespace geo
