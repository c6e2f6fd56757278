/**
 * @file
 * Fault-recovery experiment (beyond the paper, "Fig. 7"): one of the
 * mounts of the initial even spread first degrades (a RAID rebuild at
 * ~45% bandwidth), then dies outright mid-experiment. The paper only
 * ever runs Geomancy on a healthy Bluesky node; this harness measures
 * what the learned layout buys when the hardware turns hostile:
 *
 *  - the tuned layout has usually *already drained* the slow victim
 *    mount for performance reasons — optimization doubles as fault
 *    avoidance, while the static spread keeps 1/6 of its files there;
 *  - the degradation window is the warning shot for any stragglers:
 *    the measured mean on the sick mount collapses and the model
 *    evacuates them while the data is still reachable;
 *  - after the kill, accesses to stranded files fail with zero
 *    throughput, so whatever was not evacuated is lost performance;
 *  - the resilient control path (retry/backoff, circuit breaker,
 *    offline-aware action checking) keeps the pipeline from wedging
 *    on the dead mount.
 *
 * Reported per policy: healthy / degraded / post-kill phase means,
 * post-kill steady state, throughput retained, and time-to-recover
 * (accesses after the kill until the smoothed series climbs back to
 * 90% of the policy's own healthy mean; "never" when it stays down).
 */

#include <iostream>
#include <memory>

#include "experiment_common.hh"
#include "storage/fault_injector.hh"
#include "util/ascii_chart.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace {

/** Everything measured for one policy under the fault scenario. */
struct FaultScenarioResult
{
    std::string name;
    geo::core::ExperimentResult result;
    double healthyMean = 0.0;  ///< before the degradation
    double degradedMean = 0.0; ///< degradation window
    double postKillMean = 0.0; ///< whole post-kill phase
    double steadyMean = 0.0;   ///< last quarter of the post-kill phase
    double killTime = 0.0;     ///< sim seconds of the outage
    /** Accesses after the kill until 90% of healthyMean (SIZE_MAX
     *  when the series never got back there). */
    size_t recoverAccesses = 0;
    uint64_t abortedMoves = 0;
    int64_t faultEvents = 0;   ///< ReplayDB rows (Geomancy only)
    int64_t moveAttempts = 0;  ///< ReplayDB rows (Geomancy only)
    size_t movesOntoDeadAfterKill = 0; ///< must stay 0 (Geomancy only)
};

} // namespace

int
main()
{
    using namespace geo;
    bench::BenchObservability observability;
    bench::header("Fig. 7 - surviving a degrading, then dying mount",
                  "fault-injection extension (paper runs healthy only)");

    core::ExperimentConfig config = bench::benchExperimentConfig();
    config.measuredRuns = bench::knob("GEO_FIG7_RUNS", 120, 300);
    const size_t degrade_run = config.measuredRuns / 3;
    const size_t kill_run = 2 * config.measuredRuns / 3;
    const uint64_t master_seed = bench::knob("GEO_FIG7_SEED", 7, 7);

    auto run_scenario = [&](bench::PolicyKind kind,
                            const std::string &label) {
        bench::ExperimentSetup setup;
        setup.system = storage::makeBlueskySystem(master_seed);
        setup.workload = std::make_unique<workload::Belle2Workload>(
            *setup.system);
        switch (kind) {
          case bench::PolicyKind::GeomancyDynamic: {
            core::GeomancyConfig gconfig = bench::benchGeomancyConfig();
            // The full resilient pipeline: scheduler with the circuit
            // breaker (gap checking off so evacuation of a busy mount
            // is not starved) and chunked, retried migrations.
            gconfig.useScheduler = true;
            gconfig.scheduler.checkGaps = false;
            gconfig.scheduler.fileCooldownSeconds = 30.0;
            setup.geomancy = std::make_unique<core::Geomancy>(
                *setup.system, setup.workload->files(), gconfig);
            setup.policy = std::make_unique<core::GeomancyDynamicPolicy>(
                *setup.geomancy);
            break;
          }
          case bench::PolicyKind::Lru:
            setup.policy = std::make_unique<core::LruPolicy>();
            break;
          default:
            setup.policy = std::make_unique<core::NoOpPolicy>();
            break;
        }

        // The injector's stream is threaded off the master seed, so a
        // re-run of the bench replays the identical fault history.
        storage::FaultInjectorConfig fconfig;
        uint64_t seed_state = master_seed;
        fconfig.seed = splitmix64(seed_state);
        storage::FaultInjector injector(*setup.system, fconfig);
        setup.system->attachFaultInjector(&injector);
        if (setup.geomancy) {
            core::ReplayDb &db = setup.geomancy->replayDb();
            injector.onTransition([&db](const storage::FaultEvent &ev,
                                        bool active, double now) {
                core::FaultEventRecord rec;
                rec.timestamp = now;
                rec.device = ev.device;
                rec.kind = static_cast<int>(ev.kind);
                rec.active = active;
                rec.magnitude = ev.magnitude;
                db.insertFaultEvent(rec);
            });
        }

        // The victim is a slow mount the even initial spread uses:
        // the interesting question is what each policy did with the
        // files that started there.
        const storage::DeviceId victim =
            setup.system->deviceByName("var");
        FaultScenarioResult scenario;
        scenario.name = label;

        core::ExperimentRunner runner(*setup.system, *setup.workload,
                                      *setup.policy, config);
        runner.setRunHook([&](size_t run) {
            double now = setup.system->clock().now();
            if (run == degrade_run) {
                storage::FaultEvent ev;
                ev.device = victim;
                ev.kind = storage::FaultKind::Degradation;
                ev.start = now;
                ev.duration = 0.0; // the rebuild never finishes
                ev.magnitude = 0.45;
                injector.addEvent(ev);
            } else if (run == kill_run) {
                storage::FaultEvent ev;
                ev.device = victim;
                ev.kind = storage::FaultKind::Outage;
                ev.start = now;
                ev.duration = 0.0; // dead for good
                injector.addEvent(ev);
                scenario.killTime = now;
            }
        });
        scenario.result = runner.run();

        // Phase means on the access axis (phases are proportional to
        // run numbers, as in the Fig. 6 harness).
        const std::vector<double> &series =
            scenario.result.throughputSeries;
        size_t n = series.size();
        size_t degrade_at = n * degrade_run / config.measuredRuns;
        size_t kill_at = n * kill_run / config.measuredRuns;
        StatAccumulator healthy, degraded, post, steady;
        for (size_t i = 0; i < n; ++i) {
            if (i < degrade_at) {
                if (i >= degrade_at / 2) // skip the learning transient
                    healthy.add(series[i]);
            } else if (i < kill_at) {
                degraded.add(series[i]);
            } else {
                post.add(series[i]);
                if (i >= n - (n - kill_at) / 4)
                    steady.add(series[i]);
            }
        }
        scenario.healthyMean = healthy.mean();
        scenario.degradedMean = degraded.mean();
        scenario.postKillMean = post.mean();
        scenario.steadyMean = steady.mean();

        // Time-to-recover: accesses after the kill until the smoothed
        // series first climbs back to 90% of the policy's own healthy
        // mean. A policy whose files are stranded on the dead mount
        // never gets back there.
        std::vector<double> smoothed =
            scenario.result.smoothedSeries(500);
        scenario.recoverAccesses = SIZE_MAX;
        for (size_t i = kill_at; i < smoothed.size(); ++i) {
            if (smoothed[i] >= 0.9 * scenario.healthyMean) {
                scenario.recoverAccesses = i - kill_at;
                break;
            }
        }

        scenario.abortedMoves = setup.system->abortedMoveCount();
        if (setup.geomancy) {
            core::ReplayDb &db = setup.geomancy->replayDb();
            scenario.faultEvents = db.faultEventCount();
            scenario.moveAttempts = db.moveAttemptCount();
            for (const core::MovementRecord &move :
                 db.recentMovements(100000)) {
                if (move.timestamp > scenario.killTime &&
                    move.toDevice == victim)
                    ++scenario.movesOntoDeadAfterKill;
            }
        }
        std::cerr << "finished " << label << "\n";
        return scenario;
    };

    FaultScenarioResult geomancy = run_scenario(
        bench::PolicyKind::GeomancyDynamic, "Geomancy (resilient)");
    FaultScenarioResult lru =
        run_scenario(bench::PolicyKind::Lru, "LRU");
    FaultScenarioResult stat =
        run_scenario(bench::PolicyKind::NoOp, "static layout");

    TextTable table("Throughput through the fault timeline (GB/s)");
    table.setHeader({"Phase", "Geomancy", "LRU", "static"});
    auto row = [&](const std::string &phase, double g, double l,
                   double s) {
        table.addRow({phase, bench::gbps(g), bench::gbps(l),
                      bench::gbps(s)});
    };
    row("healthy", geomancy.healthyMean, lru.healthyMean,
        stat.healthyMean);
    row("mount degraded (45% bw)", geomancy.degradedMean,
        lru.degradedMean, stat.degradedMean);
    row("mount dead (whole phase)", geomancy.postKillMean,
        lru.postKillMean, stat.postKillMean);
    row("mount dead (steady state)", geomancy.steadyMean,
        lru.steadyMean, stat.steadyMean);
    table.print(std::cout);

    TextTable recovery("Recovery metrics");
    recovery.setHeader({"Metric", "Geomancy", "LRU", "static"});
    auto fmt_recover = [](size_t accesses) {
        return accesses == SIZE_MAX ? std::string("never")
                                    : std::to_string(accesses);
    };
    recovery.addRow({"throughput retained vs healthy (%)",
                     TextTable::num(100.0 * geomancy.steadyMean /
                                    geomancy.healthyMean, 1),
                     TextTable::num(100.0 * lru.steadyMean /
                                    lru.healthyMean, 1),
                     TextTable::num(100.0 * stat.steadyMean /
                                    stat.healthyMean, 1)});
    recovery.addRow({"time to recover (accesses)",
                     fmt_recover(geomancy.recoverAccesses),
                     fmt_recover(lru.recoverAccesses),
                     fmt_recover(stat.recoverAccesses)});
    recovery.addRow({"migrations aborted by faults",
                     std::to_string(geomancy.abortedMoves),
                     std::to_string(lru.abortedMoves),
                     std::to_string(stat.abortedMoves)});
    recovery.print(std::cout);

    std::cout << "\nGeomancy ReplayDB forensic trail: "
              << geomancy.faultEvents << " fault transitions, "
              << geomancy.moveAttempts << " migration attempts logged\n";

    // Scheduler admission accounting, read from the metric registry.
    // Only the Geomancy scenario owns a scheduler, so these counters
    // are entirely its doing.
    auto &registry = util::MetricRegistry::global();
    auto count = [&registry](const char *name) {
        return std::to_string(registry.counterValue(name));
    };
    TextTable sched("Scheduler admission (Geomancy, metric registry)");
    sched.setHeader({"Counter", "Count"});
    sched.addRow({"moves admitted", count("scheduler.admitted")});
    sched.addRow({"skipped: file cooldown",
                  count("scheduler.rejected_cooldown")});
    sched.addRow({"skipped: gap check", count("scheduler.rejected_gap")});
    sched.addRow({"skipped: circuit breaker",
                  count("scheduler.rejected_breaker")});
    sched.addRow({"breaker trips", count("scheduler.breaker_trips")});
    sched.addRow({"breaker probes", count("scheduler.breaker_probes")});
    sched.addRow({"retries executed", count("control.retries")});
    sched.addRow({"moves abandoned", count("control.moves_abandoned")});
    sched.print(std::cout);

    std::cout << "\nThroughput (GB/s; ^ marks degradation, then the "
                 "kill):\n";
    auto to_gb = [](std::vector<double> series) {
        for (double &v : series)
            v /= 1e9;
        return series;
    };
    size_t n = geomancy.result.throughputSeries.size();
    AsciiChartOptions chart;
    chart.height = 14;
    chart.marks = {n * degrade_run / config.measuredRuns / 500,
                   n * kill_run / config.measuredRuns / 500};
    std::cout << asciiChartMulti(
        {{"Geomancy (resilient)",
          to_gb(geomancy.result.bucketedSeries(500))},
         {"LRU", to_gb(lru.result.bucketedSeries(500))},
         {"static layout", to_gb(stat.result.bucketedSeries(500))}},
        chart);

    std::cout << "\nShape checks:\n";
    bool beats_static = geomancy.steadyMean > stat.steadyMean;
    std::cout << "  Geomancy steady state beats static:    "
              << (beats_static ? "OK" : "MISMATCH") << " ("
              << bench::gbps(geomancy.steadyMean) << " vs "
              << bench::gbps(stat.steadyMean) << " GB/s)\n";
    bool no_dead_moves = geomancy.movesOntoDeadAfterKill == 0;
    std::cout << "  no move onto the dead mount post-kill: "
              << (no_dead_moves ? "OK" : "MISMATCH") << " ("
              << geomancy.movesOntoDeadAfterKill << " violations)\n";
    // The static spread definitely has files on the sick mount, so
    // its series must show the rebuild window.
    bool dip_visible = stat.degradedMean < stat.healthyMean;
    std::cout << "  degradation visible before the kill:   "
              << (dip_visible ? "OK" : "MISMATCH") << "\n";
    bool trail_present =
        geomancy.faultEvents >= 2 && geomancy.moveAttempts > 0;
    std::cout << "  fault + attempt trail in the ReplayDB: "
              << (trail_present ? "OK" : "MISMATCH") << "\n";
    return beats_static && no_dead_moves ? 0 : 1;
}
