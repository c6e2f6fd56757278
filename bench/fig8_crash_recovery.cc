/**
 * @file
 * Crash-recovery experiment (beyond the paper, "Fig. 8"): kill the
 * Geomancy pipeline at every process-level kill point, restart it from
 * the latest checkpoint under the supervisor, and verify the resumed
 * run is *byte-identical* to the same experiment run uninterrupted.
 *
 * The scenario is the fig5a dynamic-Geomancy experiment with
 * checkpointing enabled (snapshot at the end of every measured run,
 * file-backed ReplayDB). For each kill point the harness:
 *
 *  1. forks a child that arms the crash and runs until it dies
 *     (std::_Exit, no cleanup — nothing not already durable survives);
 *  2. lets the supervisor restart it; the new child restores the
 *     newest snapshot, rewinds the ReplayDB to the checkpointed
 *     watermark and finishes the experiment;
 *  3. compares the resumed run's full per-access throughput series
 *     (hexfloat text, bit-exact) against an uninterrupted reference.
 *
 * A final scenario flips one payload byte of the newest snapshot and
 * resumes: the CRC check must reject it and fall back to the older
 * snapshot — recovery still completes, slightly further back in time.
 *
 * Reported per kill point: supervisor restarts, byte-identity of the
 * series, recovery latency (checkpoint load + ReplayDB rewind) and the
 * work the checkpoint saved (measured runs + decision cycles not
 * re-executed), mirrored into the metric registry as fig8.* gauges.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "core/geomancy.hh"
#include "core/policies.hh"
#include "experiment_common.hh"
#include "storage/bluesky.hh"
#include "storage/fault_injector.hh"
#include "util/flight_recorder.hh"
#include "util/fs_atomic.hh"
#include "util/logging.hh"
#include "util/state_io.hh"
#include "util/supervise.hh"
#include "util/table.hh"

namespace {

using namespace geo;

/** One scenario run inside a forked child. */
struct Scenario
{
    std::string dir;        ///< checkpoint directory
    std::string seriesPath; ///< hexfloat per-access series output
    std::string statsPath;  ///< recovery stats output (resume only)
    storage::CrashPoint crash = storage::CrashPoint::None;
    uint64_t crashCycle = 2;
    size_t warmup = 3;
    size_t runs = 18;
    size_t cadence = 3;
    size_t epochs = 8;
    uint64_t seed = 7;
};

/**
 * The child body: the fig5a-style experiment with checkpointing. On
 * `resume` it restores the newest valid snapshot first; with a crash
 * armed it never returns.
 */
int
runScenario(const Scenario &sc, int attempt, bool resume)
{
    util::MetricRegistry::global().reset();
    util::FlightRecorder::global().clear();
    util::FlightRecorder::global().setDumpDir(sc.dir);
    std::error_code ec;
    std::filesystem::create_directories(sc.dir, ec);
    core::CheckpointManagerConfig mconfig;
    mconfig.dir = sc.dir;
    core::CheckpointManager manager(mconfig);
    std::string db_path = sc.dir + "/replay.db";
    std::string ledger_path = sc.dir + "/ledger.ndjson";
    if (!resume) {
        manager.clear();
        core::ReplayDb::removeFiles(db_path);
        std::filesystem::remove(ledger_path, ec);
    }

    auto system = storage::makeBlueskySystem(sc.seed);
    workload::Belle2Workload workload(*system);
    // Empty schedule: the injector only provides the kill points.
    storage::FaultInjector injector(*system, {});
    system->attachFaultInjector(&injector);
    if (sc.crash != storage::CrashPoint::None && attempt == 0 && !resume)
        injector.armCrash(sc.crash, sc.crashCycle);

    core::GeomancyConfig gconfig;
    gconfig.drl.epochs = sc.epochs;
    core::Geomancy geomancy(*system, workload.files(), gconfig, db_path);
    geomancy.attachLedger(ledger_path);
    core::GeomancyDynamicPolicy policy(geomancy);

    core::ExperimentConfig config;
    config.warmupRuns = sc.warmup;
    config.measuredRuns = sc.runs;
    config.cadence = sc.cadence;
    config.seed = sc.seed * 31 + 1;
    core::ExperimentRunner runner(*system, workload, policy, config);

    auto writeSnapshot = [&](util::StateWriter &w) {
        geomancy.saveState(w);
        injector.saveState(w);
        workload.saveState(w);
        runner.saveState(w);
    };

    double restore_ms = 0.0;
    size_t runs_saved = 0, cycles_saved = 0;
    if (resume) {
        auto started = std::chrono::steady_clock::now();
        core::CheckpointHeader header;
        std::string payload, path;
        if (manager.loadLatest(header, payload, &path)) {
            std::istringstream is(payload);
            util::StateReader r(is);
            geomancy.loadState(r);
            injector.loadState(r);
            workload.loadState(r);
            runner.loadState(r);
            if (!r.ok())
                fatal("fig8: checkpoint %s rejected: %s", path.c_str(),
                      r.error().c_str());
            geomancy.controlAgent().restorePending();
            restore_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - started)
                             .count();
            runs_saved = runner.measuredRunsDone();
            cycles_saved = geomancy.cyclesRun();
            inform("fig8: resumed from %s (%zu runs, %zu cycles saved)",
                   path.c_str(), runs_saved, cycles_saved);
        } else {
            fatal("fig8: resume requested but no valid snapshot in %s",
                  sc.dir.c_str());
        }
    }

    runner.setCheckpointHook([&](size_t done) {
        std::ostringstream os;
        util::StateWriter w(os);
        writeSnapshot(w);
        if (manager.write(done, os.str()))
            injector.maybeCrash(storage::CrashPoint::AfterCommit);
    });

    core::ExperimentResult result = runner.run();

    // The byte-identity artifact: every per-access throughput sample
    // as a hexfloat (bit-exact), plus the closing clock and average.
    std::ostringstream series;
    char buf[64];
    for (double v : result.throughputSeries) {
        std::snprintf(buf, sizeof buf, "%a\n", v);
        series << buf;
    }
    std::snprintf(buf, sizeof buf, "sim_time %a\n", system->clock().now());
    series << buf;
    std::snprintf(buf, sizeof buf, "avg %a\n", result.averageThroughput);
    series << buf;
    if (!util::writeFileAtomic(sc.seriesPath, series.str()))
        return 1;

    if (!sc.statsPath.empty() && resume) {
        std::ostringstream stats;
        stats << "restore_ms " << restore_ms << "\n"
              << "runs_saved " << runs_saved << "\n"
              << "cycles_saved " << cycles_saved << "\n";
        if (!util::writeFileAtomic(sc.statsPath, stats.str()))
            return 1;
    }
    return 0;
}

} // namespace

int
main()
{
    bench::BenchObservability observability;
    bench::header("Fig. 8 - crash + restart vs uninterrupted",
                  "checkpoint/restore extension (beyond the paper)");

    Scenario base;
    base.runs = bench::knob("GEO_FIG8_RUNS", 18, 60);
    base.epochs = bench::knob("GEO_DRL_EPOCHS", 8, 60);
    const std::string root = "fig8-work";
    std::error_code ec;
    std::filesystem::remove_all(root, ec);

    // Uninterrupted reference: same checkpoint cadence, no crash.
    Scenario ref = base;
    ref.dir = root + "/ref";
    ref.seriesPath = root + "/ref-series.txt";
    util::SuperviseResult sup = util::runSupervised(
        [&](int attempt, bool resume) {
            return runScenario(ref, attempt, resume);
        },
        {0});
    if (sup.exitCode != 0)
        fatal("fig8: reference run failed (exit %d)", sup.exitCode);
    std::string ref_series, ref_ledger;
    util::readFileAll(ref.seriesPath, ref_series);
    util::readFileAll(ref.dir + "/ledger.ndjson", ref_ledger);
    if (ref_ledger.empty())
        fatal("fig8: reference run wrote no decision ledger");

    struct Row
    {
        std::string name;
        int restarts = 0;
        bool identical = false;
        bool flightDump = false;
        double restoreMs = 0.0;
        double runsSaved = 0.0;
        double cyclesSaved = 0.0;
    };
    std::vector<Row> rows;

    // A resumed scenario's row: byte identity of its series and ledger
    // against the reference, its kill-point dump and recovery stats.
    auto finishRow = [&](const Scenario &sc, const std::string &name,
                         const util::SuperviseResult &result) {
        Row row;
        row.name = name;
        row.restarts = result.restarts;
        std::string series, ledger, stats;
        util::readFileAll(sc.seriesPath, series);
        util::readFileAll(sc.dir + "/ledger.ndjson", ledger);
        util::readFileAll(sc.statsPath, stats);
        row.identical = result.exitCode == 0 && !ref_series.empty() &&
                        series == ref_series && ledger == ref_ledger;
        row.flightDump = bench::hasFlightDump(sc.dir);
        row.restoreMs = bench::statValue(stats, "restore_ms");
        row.runsSaved = bench::statValue(stats, "runs_saved");
        row.cyclesSaved = bench::statValue(stats, "cycles_saved");
        return row;
    };

    auto &registry = util::MetricRegistry::global();
    for (storage::CrashPoint point :
         {storage::CrashPoint::AfterTrain, storage::CrashPoint::AfterPropose,
          storage::CrashPoint::MidMigration,
          storage::CrashPoint::AfterCommit}) {
        Scenario sc = base;
        std::string name = storage::crashPointName(point);
        sc.dir = root + "/" + name;
        sc.seriesPath = root + "/" + name + "-series.txt";
        sc.statsPath = root + "/" + name + "-stats.txt";
        sc.crash = point;
        util::SuperviseResult result = util::runSupervised(
            [&](int attempt, bool resume) {
                return runScenario(sc, attempt, resume);
            },
            bench::kCrashDrillSupervision);
        Row row = finishRow(sc, name, result);
        rows.push_back(row);

        registry.gauge("fig8." + row.name + ".identical")
            .set(row.identical ? 1.0 : 0.0);
        registry.gauge("fig8." + row.name + ".restore_ms")
            .set(row.restoreMs);
        registry.gauge("fig8." + row.name + ".runs_saved")
            .set(row.runsSaved);
        registry.gauge("fig8." + row.name + ".cycles_saved")
            .set(row.cyclesSaved);
    }

    // Corruption fallback: flip one payload byte of the newest
    // after-train snapshot, resume again; the CRC must reject it and
    // recovery must complete from the older snapshot.
    Row corrupt_row;
    corrupt_row.name = "corrupt-crc";
    {
        Scenario sc = base;
        sc.dir = root + "/after-train";
        sc.seriesPath = root + "/corrupt-series.txt";
        sc.statsPath = root + "/corrupt-stats.txt";
        core::CheckpointManager manager({sc.dir});
        std::vector<uint64_t> cycles = manager.availableCycles();
        if (cycles.size() >= 2) {
            std::string victim = manager.pathFor(cycles.back());
            std::string blob;
            util::readFileAll(victim, blob);
            blob[blob.size() / 2] ^= 0x40; // flip a payload bit
            std::ofstream os(victim, std::ios::binary | std::ios::trunc);
            os << blob;
            os.close();
            util::SuperviseResult result = util::runSupervised(
                [&](int attempt, bool resume) {
                    (void)resume;
                    return runScenario(sc, attempt + 1, true);
                },
                {0});
            corrupt_row = finishRow(sc, corrupt_row.name, result);
        } else {
            warn("fig8: not enough snapshots for the corruption case");
        }
        rows.push_back(corrupt_row);
        registry.gauge("fig8.corrupt_crc.identical")
            .set(corrupt_row.identical ? 1.0 : 0.0);
    }

    TextTable table("Fig. 8: crash + supervised restart vs uninterrupted");
    table.setHeader({"kill point", "restarts", "byte-identical",
                     "flight dump", "restore ms", "runs saved",
                     "cycles saved"});
    bool all_identical = true;
    bool all_dumped = true;
    for (const Row &row : rows) {
        all_identical = all_identical && row.identical;
        all_dumped = all_dumped && row.flightDump;
        table.addRow({row.name, std::to_string(row.restarts),
                      row.identical ? "yes" : "NO",
                      row.flightDump ? "yes" : "NO",
                      TextTable::num(row.restoreMs, 2),
                      TextTable::num(row.runsSaved, 0),
                      TextTable::num(row.cyclesSaved, 0)});
    }
    table.print(std::cout);
    std::cout << (all_identical
                      ? "\nAll resumed runs reproduce the uninterrupted "
                        "series and decision ledger bit-for-bit.\n"
                      : "\nDIVERGENCE: at least one resumed run differs "
                        "from the uninterrupted series or ledger.\n");
    if (!all_dumped)
        std::cout << "MISSING: a kill point left no flight-recorder "
                     "dump.\n";
    return all_identical && all_dumped ? 0 : 1;
}
