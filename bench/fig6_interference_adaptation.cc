/**
 * @file
 * Regenerates Fig. 6 (experiment 3): a duplicate, untuned workload
 * starts mid-experiment on the same mounts; Geomancy must adapt the
 * tuned workload's layout to the changed contention landscape.
 *
 * Expected shape (paper Section VIII, Fig. 6): the tuned workload's
 * throughput dips when the interference arrives, then recovers as
 * Geomancy reacts, while the untuned duplicate stays lower.
 */

#include <future>
#include <iostream>
#include <memory>

#include "experiment_common.hh"
#include "util/ascii_chart.hh"
#include "util/thread_pool.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "workload/interference.hh"

namespace {

/**
 * Wrapper that stops adapting after `freeze_after` rebalance calls —
 * the no-reaction counterfactual against which Geomancy's recovery is
 * judged.
 */
class FreezeAfterPolicy : public geo::core::PlacementPolicy
{
  public:
    FreezeAfterPolicy(geo::core::PlacementPolicy &inner,
                      size_t freeze_after)
        : inner_(inner), freezeAfter_(freeze_after)
    {
    }

    std::string name() const override
    {
        return inner_.name() + " (frozen at disturbance)";
    }

    size_t
    rebalance(geo::core::PolicyContext &context) override
    {
        if (calls_++ >= freezeAfter_)
            return 0;
        return inner_.rebalance(context);
    }

  private:
    geo::core::PlacementPolicy &inner_;
    size_t freezeAfter_;
    size_t calls_ = 0;
};

/** Scenario outcome: disturbed-phase average of the tuned workload. */
struct ScenarioResult
{
    geo::core::ExperimentResult result;
    double disturbedMean = 0.0;
    double beforeMean = 0.0;
    double dipMean = 0.0;
    double lateMean = 0.0;
};

} // namespace

int
main()
{
    using namespace geo;
    bench::BenchObservability observability;
    bench::header("Fig. 6 - adapting to a new interfering workload",
                  "Section VIII, Fig. 6 (experiment 3)");

    core::ExperimentConfig config = bench::benchExperimentConfig();
    // Adaptation takes many decision cycles; give the disturbed phase
    // room to show both the dip and the climb back.
    config.measuredRuns = bench::fullScale() ? 300 : 130;
    const size_t start_run = config.measuredRuns / 3;

    /**
     * Run the scenario once. With `freeze` the layout stops adapting
     * at the moment the interference arrives - the counterfactual the
     * adaptive run must beat.
     */
    // Experiment-3 period conditions: the RAID-5 array is running
    // degraded (half its usual read bandwidth) and the Lustre mount is
    // in a quiet spell — the kind of shifted landscape the paper notes
    // between its experiment periods. This is what gives relocation
    // real headroom once the interferer saturates file0.
    std::vector<storage::DeviceConfig> configs =
        storage::blueskyDeviceConfigs(7);
    configs[0].readBandwidth = 4.8e9;
    configs[1].traffic.baseLoad = 0.2;
    configs[1].traffic.diurnalAmplitude = 0.4;
    configs[1].traffic.burstProbability = 0.06;
    configs[1].traffic.burstMagnitude = 2.0;

    auto run_scenario = [&](bool freeze, StatAccumulator *other_stats) {
        bench::ExperimentSetup setup = bench::makeSetup(
            bench::PolicyKind::GeomancyDynamic, 7, 0, &configs);
        storage::DeviceId file0 = setup.system->deviceByName("file0");
        // The duplicate workload's files land on the fast mount the
        // tuned data has gravitated to, changing the contention
        // landscape the model has learned.
        workload::InterferenceWorkload other(
            *setup.system,
            workload::InterferenceWorkload::defaultConfig(), {file0});

        FreezeAfterPolicy frozen(*setup.policy, start_run / config.cadence);
        core::PlacementPolicy &policy =
            freeze ? static_cast<core::PlacementPolicy &>(frozen)
                   : *setup.policy;
        core::ExperimentRunner runner(*setup.system, *setup.workload,
                                      policy, config);
        runner.setRunHook([&](size_t run) {
            if (run < start_run)
                return;
            // Four overlapping interference runs per tuned run: the
            // other user's Monte-Carlo suite saturates the fast mount.
            for (int burst = 0; burst < 4; ++burst) {
                for (const storage::AccessObservation &obs :
                     other.executeRunConcurrent()) {
                    if (other_stats)
                        other_stats->add(obs.throughput);
                }
            }
        });

        ScenarioResult scenario;
        scenario.result = runner.run();
        const auto &series = scenario.result.throughputSeries;
        size_t n = series.size();
        size_t first = n * start_run / config.measuredRuns;
        size_t tail = n - first;
        StatAccumulator before, dip, late, disturbed;
        for (size_t i = 0; i < n; ++i) {
            double v = series[i];
            if (i < first) {
                if (i >= first / 2) // skip the learning transient
                    before.add(v);
            } else {
                disturbed.add(v);
                if (i < first + tail / 4)
                    dip.add(v);
                else if (i >= n - tail / 4)
                    late.add(v);
            }
        }
        scenario.beforeMean = before.mean();
        scenario.dipMean = dip.mean();
        scenario.lateMean = late.mean();
        scenario.disturbedMean = disturbed.mean();
        return scenario;
    };

    // The adaptive run and the frozen counterfactual are independent
    // simulations over the same seed; run them concurrently.
    StatAccumulator other_stats;
    util::ThreadPool &pool = util::ThreadPool::global();
    std::future<ScenarioResult> adaptive_future = pool.submit(
        [&]() { return run_scenario(false, &other_stats); });
    std::future<ScenarioResult> frozen_future =
        pool.submit([&]() { return run_scenario(true, nullptr); });
    ScenarioResult adaptive = adaptive_future.get();
    std::cerr << "finished adaptive run\n";
    ScenarioResult frozen = frozen_future.get();
    std::cerr << "finished frozen counterfactual\n";

    TextTable table("Tuned workload throughput around the disturbance");
    table.setHeader({"Phase", "Geomancy adapting (GB/s)",
                     "layout frozen (GB/s)"});
    table.addRow({"before interference", bench::gbps(adaptive.beforeMean),
                  bench::gbps(frozen.beforeMean)});
    table.addRow({"interference arrives (dip)",
                  bench::gbps(adaptive.dipMean),
                  bench::gbps(frozen.dipMean)});
    table.addRow({"late disturbed phase", bench::gbps(adaptive.lateMean),
                  bench::gbps(frozen.lateMean)});
    table.addRow({"whole disturbed phase",
                  bench::gbps(adaptive.disturbedMean),
                  bench::gbps(frozen.disturbedMean)});
    table.print(std::cout);

    std::cout << "\nUntuned duplicate workload (the Fig. 6 blue line): "
              << bench::gbps(other_stats.mean()) << " GB/s average\n";

    std::cout << "\nTuned workload throughput (GB/s; ^ marks the "
                 "interference arrival):\n";
    auto to_gb = [](std::vector<double> series) {
        for (double &v : series)
            v /= 1e9;
        return series;
    };
    std::vector<double> adaptive_buckets =
        to_gb(adaptive.result.bucketedSeries(500));
    std::vector<double> frozen_buckets =
        to_gb(frozen.result.bucketedSeries(500));
    AsciiChartOptions chart;
    chart.height = 14;
    chart.marks = {adaptive.result.throughputSeries.size() * start_run /
                   config.measuredRuns / 500};
    std::cout << asciiChartMulti(
        {{"Geomancy adapting", adaptive_buckets},
         {"layout frozen at disturbance", frozen_buckets}},
        chart);

    std::cout << "\nShape checks vs paper:\n";
    double dip_ratio = adaptive.dipMean / adaptive.beforeMean;
    double vs_frozen =
        adaptive.disturbedMean / frozen.disturbedMean - 1.0;
    std::cout << "  throughput dips on arrival:            "
              << (dip_ratio < 1.0 ? "OK" : "MISMATCH") << " (ratio "
              << TextTable::num(dip_ratio, 2) << ")\n";
    std::cout << "  adapting beats frozen layout overall:  "
              << (vs_frozen > 0.0 ? "OK" : "MISMATCH") << " ("
              << TextTable::num(vs_frozen * 100.0, 1) << "%)\n";
    return 0;
}
