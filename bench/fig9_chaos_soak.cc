/**
 * @file
 * Chaos-soak experiment (beyond the paper, "Fig. 9"): run the full
 * Geomancy pipeline for hundreds of decision cycles under a seeded
 * randomized fault schedule that composes every injector the testbed
 * has — transient I/O errors, bandwidth degradation, outages, corrupt
 * telemetry, stale telemetry and clock skew — plus a deterministic
 * mid-soak telemetry "storm" hot enough to trip the guardrails into
 * safe mode and back out again.
 *
 * After every cycle the harness asserts the pipeline invariants that
 * must hold no matter what the chaos schedule did:
 *
 *  - the file layout is consistent (every file on a valid device, the
 *    per-device placement counts sum to the file count, no device
 *    over capacity);
 *  - the serialized pipeline state is finite (no NaN/Inf anywhere in
 *    the snapshot, which covers the DRL weights and scalers);
 *  - the ReplayDB watermark and the guardrail admit/quarantine
 *    counters are monotone;
 *  - the quarantine ring respects its capacity bound;
 *  - a cycle that *starts* in safe mode moves no files (frozen
 *    layout) — probes may train but never migrate;
 *  - the simulated clock never runs backwards.
 *
 * Determinism is checked end to end: each cycle's full snapshot is
 * digested (CRC-32) into a per-cycle log, a second same-seed run must
 * produce a byte-identical log, and two crash scenarios (kill at
 * after-train in normal mode, kill at after-commit inside the
 * safe-mode window) must — after a supervised restart from the latest
 * checkpoint — converge to exactly the reference digests. Foreground
 * migrations (backgroundMoves = false) make the migrate-phase deadline
 * real: big move batches overrun the budget and are deferred.
 *
 * GEO_FIG9_CYCLES overrides the soak length (default 200 cycles,
 * 400 at GEO_BENCH_FULL=1; tools/bench_smoke.sh uses 50).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/checkpoint.hh"
#include "core/geomancy.hh"
#include "experiment_common.hh"
#include "storage/bluesky.hh"
#include "storage/fault_injector.hh"
#include "util/crc32.hh"
#include "util/flight_recorder.hh"
#include "util/fs_atomic.hh"
#include "util/logging.hh"
#include "util/state_io.hh"
#include "util/supervise.hh"
#include "util/table.hh"
#include "workload/belle2.hh"

namespace {

using namespace geo;

/** Cycles of the deterministic corrupt-telemetry storm. */
constexpr uint64_t kStormCycles = 5;

/** One soak run inside a forked child. */
struct Scenario
{
    std::string dir;        ///< checkpoint directory
    std::string digestPath; ///< per-cycle CRC-32 log (append, flushed)
    std::string statsPath;  ///< end-of-run stats
    storage::CrashPoint crash = storage::CrashPoint::None;
    uint64_t crashCycle = 0;
    uint64_t cycles = 200;
    uint64_t seed = 7;
    size_t epochs = 3;
};

/** First cycle of the storm window (needs a little run-up history). */
uint64_t
stormStart(const Scenario &sc)
{
    return std::max<uint64_t>(6, sc.cycles / 3);
}

/** Per-cycle chaos seed: decouples every cycle's draws from every
 *  other's, so a resumed run replays future cycles without having to
 *  restore a generator cursor. */
uint64_t
cycleSeed(uint64_t seed, uint64_t cycle)
{
    uint64_t s = seed * 0x9E3779B97F4A7C15ULL + cycle + 1;
    return splitmix64(s);
}

/**
 * Draw this cycle's randomized fault episodes. Episode durations are
 * scaled by the previous cycle's simulated span so they stretch over
 * roughly one to a few cycles regardless of workload pacing.
 */
std::vector<storage::FaultEvent>
drawChaos(const Scenario &sc, uint64_t cycle, double now, double span)
{
    std::vector<storage::FaultEvent> events;
    Rng rng(cycleSeed(sc.seed, cycle));
    if (!rng.chance(0.30))
        return events;
    storage::FaultEvent e;
    e.device = static_cast<storage::DeviceId>(rng.uniformInt(0, 5));
    e.start = now;
    e.duration = span * rng.uniform(0.5, 3.0) + 2.0;
    switch (rng.uniformInt(0, 5)) {
      case 0:
        e.kind = storage::FaultKind::TransientErrors;
        e.magnitude = rng.uniform(0.05, 0.35);
        break;
      case 1:
        e.kind = storage::FaultKind::Degradation;
        e.magnitude = rng.uniform(0.3, 0.9);
        break;
      case 2:
        e.kind = storage::FaultKind::Outage;
        e.duration = span * rng.uniform(0.2, 0.8) + 1.0;
        e.magnitude = 0.0;
        break;
      case 3:
        e.kind = storage::FaultKind::CorruptTelemetry;
        e.magnitude = rng.uniform(0.2, 0.9);
        break;
      case 4:
        // Past the 300 s staleness window, so the Stale reason fires.
        e.kind = storage::FaultKind::StaleTelemetry;
        e.magnitude = rng.uniform(400.0, 1500.0);
        break;
      default:
        // Past the 120 s future-skew window: the Future reason fires.
        e.kind = storage::FaultKind::ClockSkew;
        e.magnitude = rng.uniform(200.0, 900.0);
        break;
    }
    events.push_back(e);
    return events;
}

/** The storm: corrupt nearly all telemetry on every device, hot
 *  enough that consecutive quarantine floods trip safe mode. */
std::vector<storage::FaultEvent>
drawStorm(double now, double span)
{
    std::vector<storage::FaultEvent> events;
    for (storage::DeviceId d = 0; d < 6; ++d) {
        storage::FaultEvent e;
        e.device = d;
        e.kind = storage::FaultKind::CorruptTelemetry;
        e.start = now;
        e.duration = span * 1.5 + 5.0;
        e.magnitude = 0.97;
        events.push_back(e);
    }
    return events;
}

/** The harness's own checkpoint section. Written *first* so a resume
 *  can rebuild the injector's event schedule before the injector's own
 *  per-event flags are restored. */
void
saveHarness(util::StateWriter &w, uint64_t cycles_done, double span,
            const std::vector<storage::FaultEvent> &events)
{
    w.u64("fig9.cycles_done", cycles_done);
    w.f64("fig9.last_span", span);
    w.u64("fig9.events", events.size());
    for (const storage::FaultEvent &e : events) {
        w.u64("fig9.ev.device", e.device);
        w.u64("fig9.ev.kind", static_cast<uint64_t>(e.kind));
        w.f64("fig9.ev.start", e.start);
        w.f64("fig9.ev.duration", e.duration);
        w.f64("fig9.ev.magnitude", e.magnitude);
    }
}

bool
loadHarness(util::StateReader &r, uint64_t &cycles_done, double &span,
            std::vector<storage::FaultEvent> &events)
{
    cycles_done = r.u64("fig9.cycles_done");
    span = r.f64("fig9.last_span");
    uint64_t count = r.u64("fig9.events");
    if (!r.ok())
        return false;
    events.clear();
    for (uint64_t i = 0; i < count; ++i) {
        storage::FaultEvent e;
        e.device =
            static_cast<storage::DeviceId>(r.u64("fig9.ev.device"));
        e.kind = static_cast<storage::FaultKind>(r.u64("fig9.ev.kind"));
        e.start = r.f64("fig9.ev.start");
        e.duration = r.f64("fig9.ev.duration");
        e.magnitude = r.f64("fig9.ev.magnitude");
        events.push_back(e);
    }
    return r.ok();
}

/** Monotone counters carried across cycles for the invariant checks. */
struct SoakCursor
{
    core::ReplayDbWatermark watermark;
    uint64_t admitted = 0;
    uint64_t quarantined = 0;
    double clock = 0.0;
};

void
checkInvariants(const Scenario &sc, uint64_t cycle,
                storage::StorageSystem &system, core::Geomancy &geomancy,
                const std::string &payload, SoakCursor &prev,
                bool was_safe, const std::map<storage::FileId,
                storage::DeviceId> &layout_before,
                uint64_t moves_before)
{
    // Layout consistency.
    size_t placed = 0;
    for (size_t count : system.filesPerDevice())
        placed += count;
    if (placed != system.fileCount())
        fatal("fig9[c%llu]: %zu files placed, %zu exist",
              (unsigned long long)cycle, placed, system.fileCount());
    for (storage::FileId id : system.fileIds())
        if (system.location(id) >= system.deviceCount())
            fatal("fig9[c%llu]: file %llu on invalid device",
                  (unsigned long long)cycle, (unsigned long long)id);
    for (storage::DeviceId d = 0; d < system.deviceCount(); ++d)
        if (system.device(d).usedBytes() > system.device(d).capacityBytes())
            fatal("fig9[c%llu]: device %u over capacity",
                  (unsigned long long)cycle, (unsigned)d);

    // Finite pipeline state: the snapshot carries every weight and
    // scaler as a hexfloat token, so a NaN/Inf anywhere surfaces here.
    for (const char *bad : {" nan", " -nan", " inf", " -inf"})
        if (payload.find(bad) != std::string::npos)
            fatal("fig9[c%llu]: non-finite value in the snapshot (%s)",
                  (unsigned long long)cycle, bad + 1);

    // Monotone progress counters.
    core::ReplayDbWatermark mark = geomancy.replayDb().watermark();
    if (mark.accesses < prev.watermark.accesses ||
        mark.movements < prev.watermark.movements ||
        mark.moveAttempts < prev.watermark.moveAttempts ||
        mark.faultEvents < prev.watermark.faultEvents)
        fatal("fig9[c%llu]: ReplayDB watermark went backwards",
              (unsigned long long)cycle);
    core::Guardrails &guardrails = geomancy.guardrails();
    if (guardrails.admitted() < prev.admitted ||
        guardrails.quarantined() < prev.quarantined)
        fatal("fig9[c%llu]: guardrail counters went backwards",
              (unsigned long long)cycle);
    if (guardrails.quarantine().size() >
        guardrails.config().quarantineCapacity)
        fatal("fig9[c%llu]: quarantine ring over capacity",
              (unsigned long long)cycle);
    if (system.clock().now() < prev.clock)
        fatal("fig9[c%llu]: simulated clock ran backwards",
              (unsigned long long)cycle);

    // Frozen layout: a cycle that started in safe mode may not move
    // anything (probes train; nobody migrates).
    if (was_safe) {
        if (system.migrationCount() != moves_before)
            fatal("fig9[c%llu]: migration in safe mode",
                  (unsigned long long)cycle);
        if (system.layout() != layout_before)
            fatal("fig9[c%llu]: layout changed in safe mode",
                  (unsigned long long)cycle);
    }

    prev.watermark = mark;
    prev.admitted = guardrails.admitted();
    prev.quarantined = guardrails.quarantined();
    prev.clock = system.clock().now();
    (void)sc;
}

/**
 * The child body: drive the pipeline cycle by cycle under the chaos
 * schedule, checkpoint after every cycle, append each cycle's snapshot
 * digest to the log. On `resume` it restores the newest valid snapshot
 * (rebuilding the injector schedule from the harness section first);
 * with a crash armed it never returns.
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
        std::filesystem::remove(sc.digestPath, ec);
        std::filesystem::remove(ledger_path, ec);
    }

    // Foreground migrations: moves advance the simulated clock, so the
    // migrate-phase deadline exerts real pressure on big batches.
    storage::SystemConfig scfg;
    scfg.backgroundMoves = false;
    storage::StorageSystem system(scfg);
    for (const storage::DeviceConfig &dc :
         storage::blueskyDeviceConfigs(sc.seed))
        system.addDevice(dc);
    workload::Belle2Workload workload(system);

    storage::FaultInjector injector(system, {sc.seed * 1000003 + 13, {}});
    system.attachFaultInjector(&injector);
    if (sc.crash != storage::CrashPoint::None && attempt == 0 && !resume)
        injector.armCrash(sc.crash, sc.crashCycle);

    core::GeomancyConfig gconfig;
    gconfig.drl.epochs = sc.epochs;
    gconfig.daemon.windowPerDevice = 256;
    gconfig.minHistory = 300;
    // Tight-but-real windows so the injected faults actually cross the
    // guardrail thresholds; the migrate budget makes overruns possible.
    gconfig.guardrails.maxRecordAgeSeconds = 300.0;
    gconfig.guardrails.maxFutureSkewSeconds = 120.0;
    gconfig.guardrails.migrateBudgetSeconds = 0.5;
    core::Geomancy geomancy(system, workload.files(), gconfig, db_path);
    geomancy.attachLedger(ledger_path);

    uint64_t cycles_done = 0;
    double span = 0.0;
    std::vector<storage::FaultEvent> events;

    if (resume) {
        core::CheckpointHeader header;
        std::string payload, path;
        if (!manager.loadLatest(header, payload, &path))
            fatal("fig9: resume requested but no valid snapshot in %s",
                  sc.dir.c_str());
        std::istringstream is(payload);
        util::StateReader r(is);
        if (!loadHarness(r, cycles_done, span, events))
            fatal("fig9: harness section of %s rejected: %s",
                  path.c_str(), r.error().c_str());
        // Rebuild the schedule before the injector restores its
        // per-event active flags (they are parallel arrays).
        for (const storage::FaultEvent &e : events)
            injector.addEvent(e);
        geomancy.loadState(r);
        injector.loadState(r);
        workload.loadState(r);
        if (!r.ok())
            fatal("fig9: checkpoint %s rejected: %s", path.c_str(),
                  r.error().c_str());
        geomancy.controlAgent().restorePending();
        inform("fig9: resumed at cycle %llu from %s",
               (unsigned long long)cycles_done, path.c_str());
    }

    std::ofstream digest_log(sc.digestPath,
                             std::ios::out | std::ios::app);
    if (!digest_log)
        fatal("fig9: cannot open %s", sc.digestPath.c_str());

    SoakCursor prev;
    prev.watermark = geomancy.replayDb().watermark();
    prev.admitted = geomancy.guardrails().admitted();
    prev.quarantined = geomancy.guardrails().quarantined();
    prev.clock = system.clock().now();

    const uint64_t storm_first = stormStart(sc);
    for (uint64_t k = cycles_done; k < sc.cycles; ++k) {
        uint64_t cycle = k + 1;
        double cycle_start = system.clock().now();
        bool was_safe = geomancy.guardrails().safeMode();
        std::map<storage::FileId, storage::DeviceId> layout_before;
        uint64_t moves_before = system.migrationCount();
        if (was_safe)
            layout_before = system.layout();

        std::vector<storage::FaultEvent> fresh;
        if (cycle >= storm_first && cycle < storm_first + kStormCycles)
            fresh = drawStorm(cycle_start, span);
        for (const storage::FaultEvent &e :
             drawChaos(sc, cycle, cycle_start, span))
            fresh.push_back(e);
        for (const storage::FaultEvent &e : fresh) {
            injector.addEvent(e);
            events.push_back(e);
        }

        workload.executeRun();
        core::CycleReport report = geomancy.runCycle();
        span = system.clock().now() - cycle_start;

        std::ostringstream os;
        util::StateWriter w(os);
        saveHarness(w, cycle, span, events);
        geomancy.saveState(w);
        injector.saveState(w);
        workload.saveState(w);
        std::string payload = os.str();

        checkInvariants(sc, cycle, system, geomancy, payload, prev,
                        was_safe, layout_before, moves_before);

        char line[128];
        std::snprintf(line, sizeof line, "%llu %08x s%d p%d h%d\n",
                      (unsigned long long)cycle, util::crc32(payload),
                      report.safeMode ? 1 : 0, report.probe ? 1 : 0,
                      report.held ? 1 : 0);
        digest_log << line << std::flush;

        if (!manager.write(cycle, payload))
            fatal("fig9: checkpoint write failed at cycle %llu",
                  (unsigned long long)cycle);
        injector.maybeCrash(storage::CrashPoint::AfterCommit);
    }

    core::Guardrails &guardrails = geomancy.guardrails();
    std::ostringstream stats;
    stats << "cycles " << sc.cycles << "\n"
          << "admitted " << guardrails.admitted() << "\n"
          << "quarantined " << guardrails.quarantined() << "\n"
          << "safe_entries " << guardrails.safeModeEntries() << "\n"
          << "safe_exits " << guardrails.safeModeExits() << "\n"
          << "overruns " << guardrails.watchdog().overruns() << "\n"
          << "moves " << system.migrationCount() << "\n";
    // Per-mount prediction-error accumulators, in the exact shape
    // `geomancy_explain --prediction-error --per-mount` recomputes
    // from the ledger file (tools/bench_smoke.sh cross-checks them).
    for (const auto &[device, stat] : geomancy.ledger()->mountErrors()) {
        char line[160];
        double n = stat.samples ? static_cast<double>(stat.samples) : 1.0;
        std::snprintf(line, sizeof line,
                      "err.dev%llu.samples %llu\n"
                      "err.dev%llu.mae %.12g\n"
                      "err.dev%llu.signed %.12g\n",
                      (unsigned long long)device,
                      (unsigned long long)stat.samples,
                      (unsigned long long)device, stat.sumAbs / n,
                      (unsigned long long)device, stat.sumSigned / n);
        stats << line;
    }
    if (!util::writeFileAtomic(sc.statsPath, stats.str()))
        return 1;
    return 0;
}

/** Parse a digest log into cycle -> line (later lines win: a crashed
 *  child may have logged a cycle whose checkpoint never became
 *  durable; the resumed child re-runs it, and re-runs must agree with
 *  the reference anyway). */
std::map<uint64_t, std::string>
parseDigests(const std::string &text)
{
    std::map<uint64_t, std::string> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        uint64_t cycle = 0;
        if (ls >> cycle)
            out[cycle] = line;
    }
    return out;
}

} // namespace

int
main()
{
    bench::BenchObservability observability;
    bench::header("Fig. 9 - chaos soak under composed fault injection",
                  "guardrails extension (beyond the paper)");

    Scenario base;
    base.cycles = bench::knob("GEO_FIG9_CYCLES", 200, 400);
    base.epochs = bench::knob("GEO_DRL_EPOCHS", 3, 20);
    const std::string root = "fig9-work";
    std::error_code ec;
    std::filesystem::remove_all(root, ec);

    auto configure = [&](const char *name) {
        Scenario sc = base;
        sc.dir = root + "/" + name;
        sc.digestPath = root + "/" + std::string(name) + "-digests.txt";
        sc.statsPath = root + "/" + std::string(name) + "-stats.txt";
        return sc;
    };

    // Uninterrupted reference.
    Scenario ref = configure("ref");
    util::SuperviseResult sup = util::runSupervised(
        [&](int attempt, bool resume) {
            return runScenario(ref, attempt, resume);
        },
        {0});
    if (sup.exitCode != 0)
        fatal("fig9: reference run failed (exit %d)", sup.exitCode);
    std::string ref_digest_log, ref_ledger;
    util::readFileAll(ref.digestPath, ref_digest_log);
    util::readFileAll(ref.dir + "/ledger.ndjson", ref_ledger);
    std::map<uint64_t, std::string> ref_digests =
        parseDigests(ref_digest_log);
    if (ref_digests.size() != base.cycles)
        fatal("fig9: reference logged %zu of %llu cycles",
              ref_digests.size(), (unsigned long long)base.cycles);
    if (ref_ledger.empty())
        fatal("fig9: reference run wrote no decision ledger");

    struct Row
    {
        std::string name;
        int restarts = 0;
        bool identical = false;
        bool flightDump = true; ///< only required of crash scenarios
        double safeEntries = 0.0;
        double safeExits = 0.0;
        double quarantined = 0.0;
        double overruns = 0.0;
    };
    std::vector<Row> rows;
    auto &registry = util::MetricRegistry::global();

    auto finishRow = [&](const Scenario &sc, const std::string &name,
                         int restarts) {
        Row row;
        row.name = name;
        row.restarts = restarts;
        std::string digest_log, ledger, stats;
        util::readFileAll(sc.digestPath, digest_log);
        util::readFileAll(sc.dir + "/ledger.ndjson", ledger);
        util::readFileAll(sc.statsPath, stats);
        row.identical = parseDigests(digest_log) == ref_digests &&
                        ledger == ref_ledger;
        if (sc.crash != storage::CrashPoint::None)
            row.flightDump = bench::hasFlightDump(sc.dir);
        row.safeEntries = bench::statValue(stats, "safe_entries");
        row.safeExits = bench::statValue(stats, "safe_exits");
        row.quarantined = bench::statValue(stats, "quarantined");
        row.overruns = bench::statValue(stats, "overruns");
        rows.push_back(row);
        registry.gauge("fig9." + name + ".identical")
            .set(row.identical ? 1.0 : 0.0);
        registry.gauge("fig9." + name + ".safe_entries")
            .set(row.safeEntries);
        registry.gauge("fig9." + name + ".quarantined")
            .set(row.quarantined);
    };
    finishRow(ref, "reference", 0);

    // Determinism twin: same seed, fresh directory, identical digests.
    {
        Scenario twin = configure("twin");
        util::SuperviseResult result = util::runSupervised(
            [&](int attempt, bool resume) {
                return runScenario(twin, attempt, resume);
            },
            {0});
        if (result.exitCode != 0)
            warn("fig9: twin run failed (exit %d)", result.exitCode);
        finishRow(twin, "same-seed-twin", 0);
    }

    // Crash in normal operation (after a retrain), supervised restart.
    {
        Scenario sc = configure("crash-train");
        sc.crash = storage::CrashPoint::AfterTrain;
        sc.crashCycle = 5;
        util::SuperviseResult result = util::runSupervised(
            [&](int attempt, bool resume) {
                return runScenario(sc, attempt, resume);
            },
            bench::kCrashDrillSupervision);
        finishRow(sc, "crash-after-train", result.restarts);
    }

    // Crash inside the safe-mode storm window: the resumed process
    // must come back *in* safe mode with the same probe schedule.
    {
        Scenario sc = configure("crash-safe");
        sc.crash = storage::CrashPoint::AfterCommit;
        sc.crashCycle = stormStart(sc) + 3;
        util::SuperviseResult result = util::runSupervised(
            [&](int attempt, bool resume) {
                return runScenario(sc, attempt, resume);
            },
            bench::kCrashDrillSupervision);
        finishRow(sc, "crash-in-safe-mode", result.restarts);
    }

    TextTable table("Fig. 9: chaos soak (" +
                    std::to_string(base.cycles) + " cycles)");
    table.setHeader({"scenario", "restarts", "digests identical",
                     "flight dump", "safe entries", "safe exits",
                     "quarantined", "overruns"});
    bool all_identical = true;
    bool all_dumped = true;
    for (const Row &row : rows) {
        all_identical = all_identical && row.identical;
        all_dumped = all_dumped && row.flightDump;
        table.addRow({row.name, std::to_string(row.restarts),
                      row.identical ? "yes" : "NO",
                      row.flightDump ? "yes" : "NO",
                      TextTable::num(row.safeEntries, 0),
                      TextTable::num(row.safeExits, 0),
                      TextTable::num(row.quarantined, 0),
                      TextTable::num(row.overruns, 0)});
    }
    table.print(std::cout);
    registry.gauge("fig9.cycles").set(static_cast<double>(base.cycles));

    const Row &reference = rows.front();
    if (reference.safeEntries < 1.0)
        warn("fig9: the storm never tripped safe mode "
             "(soak too short?)");
    std::cout << (all_identical
                      ? "\nAll runs (twin and crash/restart) reproduce "
                        "the reference digests and decision ledger "
                        "bit-for-bit.\n"
                      : "\nDIVERGENCE: at least one run differs from "
                        "the reference digests or ledger.\n");
    if (!all_dumped)
        std::cout << "MISSING: a crash scenario left no flight-recorder "
                     "dump.\n";
    return all_identical && all_dumped && reference.safeEntries >= 1.0
               ? 0
               : 1;
}
