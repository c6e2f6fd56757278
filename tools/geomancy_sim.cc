/**
 * @file
 * geomancy_sim — command-line driver for the simulated testbed.
 *
 * Runs the BELLE II workload on the Bluesky preset under a chosen
 * placement policy and prints a summary, optionally dumping the
 * per-access throughput series and move events as CSV for plotting.
 *
 * Usage:
 *   geomancy_sim [--policy NAME] [--runs N] [--warmup N] [--cadence N]
 *                [--seed N] [--epochs N] [--csv FILE] [--series FILE]
 *                [--scheduler] [--faults] [--chaos]
 *                [--force-safe-mode T] [--metrics-json FILE]
 *                [--metrics-prom FILE] [--trace-out FILE] [--quiet]
 *                [--checkpoint-dir DIR] [--checkpoint-every N]
 *                [--crash-at POINT] [--crash-cycle N] [--resume]
 *                [--max-restarts N] [--ledger-out FILE]
 *                [--flight-dump-dir DIR]
 *
 * --ledger-out attaches the decision audit ledger (geo-ledger-1
 * NDJSON; read it back with geomancy_explain) and needs --policy
 * geomancy: only the dynamic policy ends decision cycles, and a
 * ledger flushes at the end of each. --flight-dump-dir
 * arms the flight recorder: fatal signals, kill points and safe-mode
 * entries leave a post-mortem event dump under DIR.
 *
 * --faults degrades the "var" mount from t=0 (fig7-style rebuild:
 * bandwidth loss + transient I/O errors), so evacuation migrations
 * abort and the retry/backoff machinery becomes observable.
 *
 * --chaos schedules a seeded random mix of every fault class (errors,
 * degradation, outages, corrupt/stale/skewed telemetry) across the
 * run; --force-safe-mode T floods the telemetry with corruption from
 * sim time T onward, tripping the guardrails into safe mode a couple
 * of cycles later. Both schedules are pure functions of the seed and
 * flags, so crash/resume runs rebuild them identically.
 *
 * --checkpoint-dir enables crash-safe snapshots (and a file-backed
 * ReplayDB in the same directory); --crash-at kills the process at a
 * pipeline kill point; --resume restarts from the newest valid
 * snapshot under --checkpoint-dir, which it needs; --max-restarts
 * supervises the run in forked children, restarting crashed attempts
 * with backoff. A crash+resume run is byte-identical to the same run
 * uninterrupted.
 *
 * Policies: geomancy, geomancy-static, lru, mru, lfu, random,
 *           random-static, noop, mount:<name> (e.g. mount:file0)
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "core/durable_run.hh"
#include "core/experiment.hh"
#include "storage/bluesky.hh"
#include "storage/fault_injector.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/flight_recorder.hh"
#include "util/parse.hh"
#include "util/state_io.hh"
#include "util/supervise.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "util/trace_event.hh"
#include "workload/belle2.hh"

namespace {

using namespace geo;

struct Options
{
    std::string policy = "geomancy";
    size_t runs = 60;
    size_t warmup = 6;
    size_t cadence = 5;
    uint64_t seed = 7;
    size_t epochs = 20;
    std::string csvPath;    ///< summary CSV
    std::string seriesPath; ///< per-bucket series CSV
    std::string metricsJsonPath; ///< metric registry snapshot (JSON)
    std::string metricsPromPath; ///< same, Prometheus text format
    std::string tracePath;  ///< Chrome trace JSON (Perfetto-viewable)
    bool scheduler = false;
    bool faults = false;    ///< degrade the "var" mount mid-run
    bool chaos = false;     ///< seeded random schedule of all faults
    double forceSafeMode = -1.0; ///< >=0: telemetry flood from this t
    bool quiet = false;
    std::string checkpointDir;   ///< empty = checkpointing disabled
    size_t checkpointEvery = 1;  ///< snapshot every N measured runs
    storage::CrashPoint crashAt = storage::CrashPoint::None;
    uint64_t crashCycle = 2;     ///< decision cycle the crash arms at
    bool resume = false;         ///< restart from the newest snapshot
    int maxRestarts = 0;         ///< >0 runs under the supervisor
    std::string ledgerPath;      ///< decision audit ledger (NDJSON)
    std::string flightDumpDir;   ///< flight-recorder dump directory
    size_t shards = 0;           ///< >0: shard coordinator (geomancy)
    size_t tenants = 1;          ///< workload tenant multiplier
};

void
usage()
{
    std::cout <<
        "geomancy_sim - run a placement policy on the simulated "
        "Bluesky testbed\n\n"
        "  --policy NAME   geomancy | geomancy-static | lru | mru | lfu\n"
        "                  | random | random-static | noop | mount:<name>\n"
        "  --runs N        measured workload runs (default 60)\n"
        "  --warmup N      warmup runs before the policy acts (default 6)\n"
        "  --cadence N     runs between rebalances (default 5)\n"
        "  --seed N        master seed (default 7)\n"
        "  --epochs N      DRL retraining epochs (default 20)\n"
        "  --scheduler     enable the movement scheduler (gap + cooldown)\n"
        "  --faults        degrade the 'var' mount (bandwidth +\n"
        "                  transient errors) to exercise retries\n"
        "  --chaos         seeded random schedule composing every\n"
        "                  fault class (I/O errors, degradation,\n"
        "                  outages, corrupt/stale/skewed telemetry)\n"
        "  --force-safe-mode T   flood the telemetry with corruption\n"
        "                  from sim time T on; the guardrails trip\n"
        "                  into safe mode a couple of cycles later\n"
        "  --csv FILE      append a one-line summary as CSV\n"
        "  --series FILE   write the bucketed throughput series as CSV\n"
        "  --metrics-json FILE   write the metric registry as JSON\n"
        "  --metrics-prom FILE   write the metrics in Prometheus text\n"
        "  --trace-out FILE      write a Chrome trace (view in Perfetto\n"
        "                        or chrome://tracing)\n"
        "  --checkpoint-dir DIR  crash-safe snapshots + file-backed\n"
        "                        ReplayDB under DIR\n"
        "  --checkpoint-every N  snapshot every N measured runs (def. 1)\n"
        "  --crash-at POINT      kill the process at a pipeline kill\n"
        "                        point: after-train | after-propose |\n"
        "                        mid-migration | after-commit\n"
        "  --crash-cycle N       decision cycle the crash arms at (def. 2)\n"
        "  --resume        restart from the newest valid snapshot\n"
        "                  under --checkpoint-dir (which it needs)\n"
        "  --max-restarts N      supervise: fork attempts, restart\n"
        "                        crashed children with backoff\n"
        "  --ledger-out FILE     write the decision audit ledger\n"
        "                        (geo-ledger-1 NDJSON; see\n"
        "                        geomancy_explain; policy geomancy\n"
        "                        only)\n"
        "  --flight-dump-dir DIR dump the flight-recorder ring there\n"
        "                        on fatal signals, kill points and\n"
        "                        safe-mode entry\n"
        "  --shards N      run N Geomancy shards under the fleet\n"
        "                  coordinator (policy geomancy only); files\n"
        "                  partition by stable hash, per-device\n"
        "                  migration budgets apply across shards\n"
        "  --tenants N     multiply the workload: N co-tenant BELLE II\n"
        "                  suites with independent seeds (default 1)\n"
        "  --quiet         suppress warnings\n";
}

bool
parse(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        auto count = [&](const char *flag) -> uint64_t {
            std::string value = next(flag);
            uint64_t n = 0;
            if (!util::parseU64(value, n))
                fatal("%s '%s': expected a non-negative integer", flag,
                      value.c_str());
            return n;
        };
        if (arg == "--policy")
            options.policy = next("--policy");
        else if (arg == "--runs")
            options.runs = count("--runs");
        else if (arg == "--warmup")
            options.warmup = count("--warmup");
        else if (arg == "--cadence")
            options.cadence = count("--cadence");
        else if (arg == "--seed")
            options.seed = count("--seed");
        else if (arg == "--epochs")
            options.epochs = count("--epochs");
        else if (arg == "--csv")
            options.csvPath = next("--csv");
        else if (arg == "--series")
            options.seriesPath = next("--series");
        else if (arg == "--metrics-json")
            options.metricsJsonPath = next("--metrics-json");
        else if (arg == "--metrics-prom")
            options.metricsPromPath = next("--metrics-prom");
        else if (arg == "--trace-out")
            options.tracePath = next("--trace-out");
        else if (arg == "--checkpoint-dir")
            options.checkpointDir = next("--checkpoint-dir");
        else if (arg == "--checkpoint-every") {
            // A divisor of the measured-run count (`done % every`).
            options.checkpointEvery = count("--checkpoint-every");
            if (options.checkpointEvery == 0)
                fatal("--checkpoint-every must be at least 1");
        } else if (arg == "--crash-at") {
            std::string point = next("--crash-at");
            if (!storage::parseCrashPoint(point, options.crashAt))
                fatal("unknown crash point '%s'", point.c_str());
        } else if (arg == "--crash-cycle")
            options.crashCycle = count("--crash-cycle");
        else if (arg == "--resume")
            options.resume = true;
        else if (arg == "--max-restarts")
            options.maxRestarts = static_cast<int>(
                std::min<uint64_t>(count("--max-restarts"), INT_MAX));
        else if (arg == "--ledger-out")
            options.ledgerPath = next("--ledger-out");
        else if (arg == "--flight-dump-dir")
            options.flightDumpDir = next("--flight-dump-dir");
        else if (arg == "--shards")
            options.shards = count("--shards");
        else if (arg == "--tenants")
            options.tenants = count("--tenants");
        else if (arg == "--scheduler")
            options.scheduler = true;
        else if (arg == "--faults")
            options.faults = true;
        else if (arg == "--chaos")
            options.chaos = true;
        else if (arg == "--force-safe-mode") {
            std::string value = next("--force-safe-mode");
            if (!util::parseDouble(value, options.forceSafeMode))
                fatal("--force-safe-mode '%s': expected a number",
                      value.c_str());
        } else if (arg == "--quiet")
            options.quiet = true;
        else if (arg == "--help" || arg == "-h") {
            usage();
            return false;
        } else {
            fatal("unknown argument '%s' (try --help)", arg.c_str());
        }
    }
    if (options.resume && options.checkpointDir.empty())
        fatal("--resume needs --checkpoint-dir (nothing to resume from)");
    if (options.shards > 0 && options.policy != "geomancy")
        fatal("--shards requires --policy geomancy");
    if (!options.ledgerPath.empty() && options.policy != "geomancy")
        fatal("--ledger-out requires --policy geomancy");
    return true;
}

/**
 * One attempt of the simulation — the whole former main(). Under the
 * supervisor this is the forked child's body; `attempt` is the restart
 * count and `resume` asks it to continue from the newest snapshot.
 */
int
runOnce(const Options &options, int attempt, bool resume)
{
    if (options.quiet)
        setLogLevel(LogLevel::Quiet);
    // Build the worker pool now, in this process (a supervised child
    // must not inherit a forked pool), so a bad GEO_THREADS is
    // reported even by a run too short to train.
    util::ThreadPool::global();

    // Start from a clean registry so the exported snapshot describes
    // exactly this run; arm the tracer before any instrumented code.
    util::MetricRegistry::global().reset();
    util::MetricRegistry::global().gauge("supervisor.restarts")
        .set(attempt);
    if (!options.tracePath.empty()) {
        util::TraceCollector::global().enable();
        // Crashes flush the buffered tail to the same path the clean
        // exit would have written (a truncated trace beats none).
        util::TraceCollector::global().setCrashFlushPath(
            options.tracePath);
    }
    util::FlightRecorder::global().clear();
    if (!options.flightDumpDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(options.flightDumpDir, ec);
        util::FlightRecorder::global().setDumpDir(options.flightDumpDir);
        util::FlightRecorder::installSignalHandlers();
    }

    // A fresh run drops the previous run's ledgers; a resume keeps
    // them, and loadState truncates each back to the checkpoint cut.
    const std::string &name = options.policy;
    std::vector<std::string> ledgers;
    if (!options.ledgerPath.empty()) {
        if (options.shards == 0)
            ledgers.push_back(options.ledgerPath);
        for (size_t s = 0; s < options.shards; ++s)
            ledgers.push_back(core::ShardCoordinator::ledgerPath(
                options.ledgerPath, s));
    }
    // Checkpointing keeps the ReplayDB in a file beside the snapshots:
    // a snapshot only stores a watermark into it.
    std::unique_ptr<core::DurableRun> durable;
    std::string db_path = ":memory:";
    if (!options.checkpointDir.empty()) {
        durable = std::make_unique<core::DurableRun>(
            options.checkpointDir, resume, ledgers, options.shards);
        db_path = durable->dbPath();
    } else if (!resume) {
        std::error_code ec;
        for (const std::string &path : ledgers)
            std::filesystem::remove(path, ec);
    }

    auto system = storage::makeBlueskySystem(options.seed);
    workload::Belle2Config wconfig;
    wconfig.tenantCount = std::max<size_t>(1, options.tenants);
    workload::Belle2Workload workload(*system, wconfig);

    std::unique_ptr<storage::FaultInjector> injector;
    // Checkpointing always constructs the injector (harmless with an
    // empty schedule) so the snapshot layout does not depend on which
    // of --faults/--crash-at/--resume this particular invocation got.
    if (options.faults || options.chaos ||
        options.forceSafeMode >= 0.0 || durable ||
        options.crashAt != storage::CrashPoint::None) {
        storage::FaultInjectorConfig fconfig;
        fconfig.seed = options.seed * 1000003 + 13;
        injector =
            std::make_unique<storage::FaultInjector>(*system, fconfig);
        system->attachFaultInjector(injector.get());
    }
    if (options.faults) {
        // Mirror the fig7 scenario, live from t=0: the "var" mount is
        // in a rebuild (degraded bandwidth) and throws transient I/O
        // errors for the whole experiment.  It must be active before
        // the first rebalance — evacuating the degraded mount is
        // exactly the traffic that exercises the retry machinery.
        storage::DeviceId victim = system->deviceByName("var");
        storage::FaultEvent degrade;
        degrade.device = victim;
        degrade.kind = storage::FaultKind::Degradation;
        degrade.start = 0.0;
        degrade.duration = 0.0; // the rebuild never finishes
        degrade.magnitude = 0.45;
        injector->addEvent(degrade);
        storage::FaultEvent errors;
        errors.device = victim;
        errors.kind = storage::FaultKind::TransientErrors;
        errors.start = 0.0;
        errors.duration = 0.0;
        // Hotter than fig7's 0.35: short CLI runs see few moves
        // touch the victim, and the point of --faults is to make
        // the retry/backoff path observable, not marginal.
        errors.magnitude = 0.6;
        injector->addEvent(errors);
    }
    if (options.chaos) {
        // A static, seed-derived schedule (identical on every resume,
        // which keeps checkpoint restores valid): mixed-kind episodes
        // spread along the sim-time axis. Episodes scheduled past the
        // end of a short run simply never activate.
        Rng chaos(options.seed * 0x9E3779B9ULL + 0x51ED);
        double at = 5.0;
        size_t devices = system->deviceCount();
        for (int i = 0; i < 48; ++i) {
            storage::FaultEvent e;
            e.device = static_cast<storage::DeviceId>(
                chaos.uniformInt(0, static_cast<int64_t>(devices) - 1));
            e.start = at;
            e.duration = chaos.uniform(5.0, 60.0);
            switch (chaos.uniformInt(0, 5)) {
              case 0:
                e.kind = storage::FaultKind::TransientErrors;
                e.magnitude = chaos.uniform(0.05, 0.35);
                break;
              case 1:
                e.kind = storage::FaultKind::Degradation;
                e.magnitude = chaos.uniform(0.3, 0.9);
                break;
              case 2:
                e.kind = storage::FaultKind::Outage;
                e.duration = chaos.uniform(2.0, 15.0);
                break;
              case 3:
                e.kind = storage::FaultKind::CorruptTelemetry;
                e.magnitude = chaos.uniform(0.2, 0.9);
                break;
              case 4:
                // Beyond the default staleness window (one day), so
                // the Stale quarantine reason actually fires.
                e.kind = storage::FaultKind::StaleTelemetry;
                e.magnitude = chaos.uniform(90000.0, 250000.0);
                break;
              default:
                // Beyond the default future-skew slack (one hour).
                e.kind = storage::FaultKind::ClockSkew;
                e.magnitude = chaos.uniform(4000.0, 20000.0);
                break;
            }
            injector->addEvent(e);
            at += chaos.uniform(10.0, 80.0);
        }
    }
    if (options.forceSafeMode >= 0.0) {
        // Permanent corruption of nearly all telemetry on every mount:
        // consecutive quarantine floods trip safe mode within a couple
        // of decision cycles of `forceSafeMode`. Static schedule, so
        // crash/resume runs rebuild it identically.
        for (storage::DeviceId d = 0; d < system->deviceCount(); ++d) {
            storage::FaultEvent flood;
            flood.device = d;
            flood.kind = storage::FaultKind::CorruptTelemetry;
            flood.start = options.forceSafeMode;
            flood.duration = 0.0; // never lifts
            flood.magnitude = 0.97;
            injector->addEvent(flood);
        }
    }
    if (injector)
        core::DurableRun::armKillPoint(*injector, options.crashAt,
                                       options.crashCycle, attempt, resume);

    // Geomancy is constructed eagerly so its agents observe warmup
    // accesses even for the static variant.
    core::GeomancyConfig gconfig;
    gconfig.drl.epochs = options.epochs;
    gconfig.useScheduler = options.scheduler;
    std::unique_ptr<core::Geomancy> geomancy;
    std::unique_ptr<core::ShardCoordinator> coordinator;
    std::unique_ptr<core::PlacementPolicy> policy;
    std::vector<core::Geomancy *> units; ///< the monolith or each shard

    if (options.shards > 0) {
        core::ShardCoordinatorConfig ccfg;
        ccfg.shardCount = options.shards;
        ccfg.base = gconfig;
        coordinator = std::make_unique<core::ShardCoordinator>(
            *system, workload.files(), ccfg, db_path);
        for (size_t s = 0; s < options.shards; ++s)
            units.push_back(&coordinator->shard(s));
        if (!options.ledgerPath.empty())
            coordinator->attachLedgers(options.ledgerPath);
        policy =
            std::make_unique<core::ShardedGeomancyPolicy>(*coordinator);
    } else if (name == "geomancy" || name == "geomancy-static") {
        geomancy = std::make_unique<core::Geomancy>(
            *system, workload.files(), gconfig, db_path);
        units.push_back(geomancy.get());
        if (!options.ledgerPath.empty())
            geomancy->attachLedger(options.ledgerPath);
        if (name == "geomancy")
            policy = std::make_unique<core::GeomancyDynamicPolicy>(
                *geomancy);
        else
            policy = std::make_unique<core::GeomancyStaticPolicy>(
                *geomancy);
    } else if (name == "lru") {
        policy = std::make_unique<core::LruPolicy>();
    } else if (name == "mru") {
        policy = std::make_unique<core::MruPolicy>();
    } else if (name == "lfu") {
        policy = std::make_unique<core::LfuPolicy>();
    } else if (name == "random") {
        policy = std::make_unique<core::RandomPolicy>(true);
    } else if (name == "random-static") {
        policy = std::make_unique<core::RandomPolicy>(false);
    } else if (name == "noop") {
        policy = std::make_unique<core::NoOpPolicy>();
    } else if (name.rfind("mount:", 0) == 0) {
        policy = std::make_unique<core::SingleMountPolicy>(
            system->deviceByName(name.substr(6)));
    } else {
        fatal("unknown policy '%s' (try --help)", name.c_str());
    }

    core::ExperimentConfig config;
    config.warmupRuns = options.warmup;
    config.measuredRuns = options.runs;
    config.cadence = options.cadence;
    config.seed = options.seed * 31 + 1;

    core::ExperimentRunner runner(*system, workload, *policy, config);

    // One consistent cut: the pipeline (or bare system), the injector,
    // the workload cursor and the runner's progress, saved and loaded
    // in this order. Checkpointing always has an injector.
    auto eachSection = [&](auto &&visit) {
        if (coordinator)
            visit(*coordinator);
        else if (geomancy)
            visit(*geomancy);
        else
            visit(*system);
        visit(*injector);
        visit(workload);
        visit(runner);
    };

    if (durable && resume) {
        core::DurableRun::Restored restored = durable->restore(
            [&](util::StateReader &r) {
                eachSection([&](auto &section) { section.loadState(r); });
            },
            units);
        if (restored.loaded) {
            auto &registry = util::MetricRegistry::global();
            registry.gauge("checkpoint.restore_ms").set(restored.ms);
            registry.gauge("checkpoint.resume_cycle")
                .set(static_cast<double>(restored.header.cycle));
            registry.gauge("checkpoint.runs_saved")
                .set(static_cast<double>(runner.measuredRunsDone()));
            inform("resumed from %s: %zu of %zu measured runs already "
                   "done (%.1f ms restore)", restored.path.c_str(),
                   runner.measuredRunsDone(), options.runs, restored.ms);
        } else {
            warn("no usable checkpoint under %s; starting fresh",
                 options.checkpointDir.c_str());
        }
    }

    if (durable) {
        // The serialize half of a commit; the checkpoint manager times
        // the write half into checkpoint.write_ms.
        util::Histogram &serializeMs =
            util::MetricRegistry::global().histogram(
                "checkpoint.serialize_ms");
        runner.setCheckpointHook([&](size_t done) {
            if (done % options.checkpointEvery != 0 &&
                done != options.runs)
                return;
            auto started = std::chrono::steady_clock::now();
            std::ostringstream os;
            util::StateWriter w(os);
            eachSection([&](auto &section) { section.saveState(w); });
            std::string payload = os.str();
            std::chrono::duration<double, std::milli> took =
                std::chrono::steady_clock::now() - started;
            serializeMs.record(took.count());
            durable->commit(done, payload, *injector);
        });
    }

    core::ExperimentResult result = runner.run();

    TextTable table("geomancy_sim results");
    table.setHeader({"metric", "value"});
    table.addRow({"policy", result.policyName});
    table.addRow({"accesses", std::to_string(result.totalAccesses)});
    table.addRow({"avg throughput (GB/s)",
                  TextTable::num(result.averageThroughput / 1e9, 3)});
    table.addRow({"files moved", std::to_string(result.filesMoved)});
    table.addRow({"GB moved",
                  TextTable::num(
                      static_cast<double>(result.bytesMoved) / 1e9, 2)});
    table.addRow({"sim time (s)",
                  TextTable::num(system->clock().now(), 1)});
    auto names = storage::blueskyMountNames();
    for (size_t d = 0; d < names.size(); ++d) {
        double share = result.totalAccesses
                           ? 100.0 *
                                 static_cast<double>(
                                     result.accessesPerDevice[d]) /
                                 static_cast<double>(result.totalAccesses)
                           : 0.0;
        table.addRow({"usage % " + names[d], TextTable::num(share, 1)});
    }
    table.print(std::cout);

    if (!options.csvPath.empty()) {
        std::ofstream os(options.csvPath, std::ios::app);
        CsvWriter writer(os);
        writer.writeRow({result.policyName,
                         std::to_string(options.seed),
                         std::to_string(result.totalAccesses),
                         strprintf("%.6g", result.averageThroughput),
                         std::to_string(result.filesMoved),
                         std::to_string(result.bytesMoved)});
        std::cout << "summary appended to " << options.csvPath << "\n";
    }
    if (!options.seriesPath.empty()) {
        std::ofstream os(options.seriesPath);
        CsvWriter writer(os);
        writer.writeRow({"bucket", "mean_throughput_bytes_per_s"});
        std::vector<double> buckets = result.bucketedSeries(500);
        for (size_t i = 0; i < buckets.size(); ++i)
            writer.writeRow({std::to_string(i),
                             strprintf("%.6g", buckets[i])});
        std::cout << "series written to " << options.seriesPath << "\n";
    }
    if (!options.metricsJsonPath.empty()) {
        if (util::MetricRegistry::global().writeJsonFile(
                options.metricsJsonPath))
            std::cout << "metrics written to " << options.metricsJsonPath
                      << "\n";
        else
            warn("could not write %s", options.metricsJsonPath.c_str());
    }
    if (!options.metricsPromPath.empty()) {
        std::ofstream os(options.metricsPromPath);
        if (os) {
            os << util::MetricRegistry::global().toPrometheus();
            std::cout << "metrics written to " << options.metricsPromPath
                      << "\n";
        } else {
            warn("could not write %s", options.metricsPromPath.c_str());
        }
    }
    if (!options.tracePath.empty()) {
        util::TraceCollector &collector = util::TraceCollector::global();
        collector.disable();
        if (collector.writeJsonFile(options.tracePath)) {
            std::cout << "trace written to " << options.tracePath << " ("
                      << collector.eventCount() << " events";
            if (collector.droppedCount() > 0)
                std::cout << ", " << collector.droppedCount()
                          << " dropped";
            std::cout << ")\n";
        } else {
            warn("could not write %s", options.tracePath.c_str());
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parse(argc, argv, options))
        return 0;

    if (options.maxRestarts > 0) {
        util::SuperviseConfig sconfig;
        sconfig.maxRestarts = options.maxRestarts;
        util::SuperviseResult sup = util::runSupervised(
            [&](int attempt, bool restarted) {
                return runOnce(options, attempt,
                               options.resume || restarted);
            },
            sconfig);
        return sup.exitCode;
    }
    return runOnce(options, 0, options.resume);
}
