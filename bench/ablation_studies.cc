/**
 * @file
 * Ablations of Geomancy's design decisions (DESIGN.md Section 4):
 *
 *  A. exploration rate (0 vs the paper's 10%-of-runs ~ 0.41/cycle);
 *  B. decision cadence (move every 1 / 5 / 20 runs — the paper found
 *     5 best: more often pays too much transfer overhead, less often
 *     makes placements stale);
 *  C. MAE-based prediction adjustment on/off (paper Section V-G);
 *  D. action-checker safeguards: measured-throughput sanity veto and
 *     the per-target move cap, evaluated under a contention shift
 *     (the regime where they matter);
 *  E. ReplayDB smoothing method (moving average vs none vs cumulative
 *     average — the paper argues the cumulative average erases the
 *     short-term dips that signal slowdowns).
 */

#include <iostream>

#include "experiment_common.hh"
#include "model_search_common.hh"
#include "util/table.hh"
#include "workload/interference.hh"

namespace {

using namespace geo;

/** Run Geomancy dynamic with a custom config and cadence. */
core::ExperimentResult
runGeomancy(const core::GeomancyConfig &gconfig, size_t cadence,
            size_t measured_runs, bool disturb = false)
{
    std::unique_ptr<storage::StorageSystem> system;
    if (disturb) {
        // The Fig. 6 period conditions (degraded RAID-5, quiet
        // Lustre): the regime where reacting to the disturbance has
        // real headroom, hence where these knobs can matter at all.
        std::vector<storage::DeviceConfig> configs =
            storage::blueskyDeviceConfigs(7);
        configs[0].readBandwidth = 4.8e9;
        configs[1].traffic.baseLoad = 0.2;
        configs[1].traffic.diurnalAmplitude = 0.4;
        configs[1].traffic.burstProbability = 0.06;
        configs[1].traffic.burstMagnitude = 2.0;
        system = std::make_unique<storage::StorageSystem>();
        for (const storage::DeviceConfig &config : configs)
            system->addDevice(config);
    } else {
        system = storage::makeBlueskySystem();
    }
    workload::Belle2Workload workload(*system);
    core::Geomancy geomancy(*system, workload.files(), gconfig);
    core::GeomancyDynamicPolicy policy(geomancy);

    core::ExperimentConfig config = bench::benchExperimentConfig();
    config.cadence = cadence;
    config.measuredRuns = measured_runs;

    core::ExperimentRunner runner(*system, workload, policy, config);
    std::unique_ptr<workload::InterferenceWorkload> other;
    if (disturb) {
        storage::DeviceId file0 = system->deviceByName("file0");
        other = std::make_unique<workload::InterferenceWorkload>(
            *system, workload::InterferenceWorkload::defaultConfig(),
            std::vector<storage::DeviceId>{file0});
        size_t start = measured_runs / 3;
        runner.setRunHook([&, start](size_t run) {
            if (run < start)
                return;
            for (int burst = 0; burst < 4; ++burst)
                other->executeRunConcurrent();
        });
    }
    return runner.run();
}

} // namespace

int
main()
{
    using namespace geo;
    bench::BenchObservability observability;
    bench::header("Ablation studies", "DESIGN.md Section 4");
    const size_t runs = bench::fullScale() ? 150 : 50;

    // ---- A. exploration rate -------------------------------------------
    {
        TextTable table("A. exploration rate (under a contention shift)");
        table.setHeader({"explorationRate", "avg throughput (GB/s)",
                         "files moved"});
        const std::vector<double> rates = {0.0, 0.41};
        std::vector<std::future<core::ExperimentResult>> ran;
        for (double rate : rates) {
            core::GeomancyConfig config = bench::benchGeomancyConfig();
            config.explorationRate = rate;
            ran.push_back(util::ThreadPool::global().submit(
                [config, runs]() {
                    return runGeomancy(config, 5, runs, /*disturb=*/true);
                }));
        }
        for (size_t i = 0; i < rates.size(); ++i) {
            core::ExperimentResult result = ran[i].get();
            table.addRow({TextTable::num(rates[i], 2),
                          bench::gbps(result.averageThroughput),
                          std::to_string(result.filesMoved)});
            std::cerr << "A: rate " << rates[i] << " done\n";
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    // ---- B. decision cadence -------------------------------------------
    {
        TextTable table("B. decision cadence (runs between moves)");
        table.setHeader({"cadence", "avg throughput (GB/s)",
                         "files moved", "GB moved"});
        const std::vector<size_t> cadences = {1, 5, 20};
        std::vector<std::future<core::ExperimentResult>> ran;
        for (size_t cadence : cadences) {
            ran.push_back(util::ThreadPool::global().submit(
                [cadence, runs]() {
                    return runGeomancy(bench::benchGeomancyConfig(),
                                       cadence, runs);
                }));
        }
        for (size_t i = 0; i < cadences.size(); ++i) {
            core::ExperimentResult result = ran[i].get();
            table.addRow({std::to_string(cadences[i]),
                          bench::gbps(result.averageThroughput),
                          std::to_string(result.filesMoved),
                          TextTable::num(
                              static_cast<double>(result.bytesMoved) /
                                  1e9,
                              1)});
            std::cerr << "B: cadence " << cadences[i] << " done\n";
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    // ---- C. MAE prediction adjustment ------------------------------------
    {
        TextTable table("C. MAE-based prediction adjustment (Sec. V-G)");
        table.setHeader({"adjustWithMae", "model-1 test error (%)"});
        bench::Telemetry telemetry = bench::collectTelemetry(40);
        std::vector<core::PerfRecord> people = telemetry.perDevice[2];
        for (bool adjust : {true, false}) {
            // Score through the engine so the adjustment path runs.
            core::ReplayDb db;
            core::DaemonConfig dconfig;
            dconfig.smoothingWindow = 16;
            core::InterfaceDaemon daemon(db, dconfig);
            daemon.receiveBatch(people);
            core::DrlConfig econfig;
            econfig.epochs = 30;
            econfig.adjustWithMae = adjust;
            core::DrlEngine engine(econfig);
            core::RetrainStats stats =
                engine.retrain(daemon.buildTrainingBatch({2}));
            if (!stats.trained) {
                table.addRow({adjust ? "on" : "off", "(not trained)"});
                continue;
            }
            // Apply the Sec. V-G adjustment to the held-out test
            // slice of the same batch and compare the error with the
            // raw predictions (RetrainStats reports the raw error).
            core::TrainingBatch batch = daemon.buildTrainingBatch({2});
            nn::DataSplit split = nn::chronologicalSplit(batch.dataset);
            nn::Matrix raw = engine.model().predict(split.test.inputs);
            std::vector<double> pred, target;
            for (size_t r = 0; r < split.test.size(); ++r) {
                double p = batch.denormalizeTarget(raw.at(r, 0));
                p += engine.adjustSign() * engine.maeFraction() * p;
                pred.push_back(std::max(0.0, p));
                target.push_back(batch.denormalizeTarget(
                    split.test.targets.at(r, 0)));
            }
            table.addRow({adjust ? "on" : "off",
                          TextTable::num(
                              meanAbsoluteRelativeError(pred, target),
                              2)});
            std::cerr << "C: adjust " << adjust << " done\n";
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    // ---- D. action-checker safeguards ------------------------------------
    {
        TextTable table(
            "D. checker safeguards under a contention shift");
        table.setHeader({"sanity veto", "per-target cap",
                         "avg throughput (GB/s)"});
        struct Case
        {
            size_t sanity;
            size_t cap;
        };
        const std::vector<Case> cases = {
            {4000, 3}, {0, 3}, {4000, 0}, {0, 0}};
        std::vector<std::future<core::ExperimentResult>> ran;
        for (const Case &c : cases) {
            core::GeomancyConfig config = bench::benchGeomancyConfig();
            config.sanityWindow = c.sanity;
            config.checker.maxMovesPerTarget = c.cap;
            ran.push_back(util::ThreadPool::global().submit(
                [config, runs]() {
                    return runGeomancy(config, 5, runs, /*disturb=*/true);
                }));
        }
        for (size_t i = 0; i < cases.size(); ++i) {
            const Case &c = cases[i];
            core::ExperimentResult result = ran[i].get();
            table.addRow({c.sanity ? "on" : "off",
                          c.cap ? "on" : "off",
                          bench::gbps(result.averageThroughput)});
            std::cerr << "D: sanity " << c.sanity << " cap " << c.cap
                      << " done\n";
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    // ---- E. smoothing method ---------------------------------------------
    {
        TextTable table("E. ReplayDB smoothing (model-1 test error)");
        table.setHeader({"method", "error (%)"});
        bench::Telemetry telemetry = bench::collectTelemetry(40);
        std::vector<core::PerfRecord> people = telemetry.perDevice[2];
        struct Method
        {
            const char *name;
            size_t window; ///< 1 = none
        };
        for (const Method &m : {Method{"none", 1},
                                Method{"moving average (32)", 32},
                                Method{"moving average (8)", 8}}) {
            bench::ModelScore score = bench::scoreModelAveraged(
                1, people, 30, 900, 3, m.window);
            table.addRow({m.name,
                          score.diverged
                              ? "Diverged"
                              : TextTable::meanStd(
                                    score.meanAbsRelError,
                                    score.stddevAbsRelError)});
            std::cerr << "E: " << m.name << " done\n";
        }
        table.print(std::cout);
    }

    std::cout
        << "\nReading the results: cadence 20 is stale (paper agrees); "
           "in our substrate migration overhead is cheaper than on the "
           "real Bluesky, so cadence 1 is not punished as the paper "
           "observed. Smoothing (Sec. V-E) is load-bearing for model "
           "quality. The safeguard and exploration rows quantify the "
           "contention-shift regime of Fig. 6.\n";
    return 0;
}
