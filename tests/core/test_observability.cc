/**
 * @file
 * Observability-vs-determinism tests: the instrumentation may only
 * *record* what the pipeline does — enabling tracing, resetting the
 * registry or reading snapshots mid-run must leave every simulated
 * outcome bit-identical. Also checks that a real Geomancy run actually
 * populates the pipeline counters end to end.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "storage/bluesky.hh"
#include "util/metrics.hh"
#include "util/trace_event.hh"

namespace geo {
namespace core {
namespace {

ExperimentConfig
shortConfig()
{
    ExperimentConfig config;
    config.warmupRuns = 1;
    config.measuredRuns = 5;
    config.cadence = 2;
    config.seed = 11;
    return config;
}

ExperimentResult
runGeomancy()
{
    auto system = storage::makeBlueskySystem(7);
    workload::Belle2Workload workload(*system);
    GeomancyConfig config;
    config.drl.epochs = 6;
    config.minHistory = 200;
    Geomancy geomancy(*system, workload.files(), config);
    GeomancyDynamicPolicy policy(geomancy);
    ExperimentRunner runner(*system, workload, policy, shortConfig());
    return runner.run();
}

TEST(Observability, TracingDoesNotPerturbTheExperiment)
{
    util::TraceCollector &collector = util::TraceCollector::global();
    collector.disable();
    collector.clear();
    ExperimentResult plain = runGeomancy();

    util::MetricRegistry::global().reset();
    collector.enable();
    ExperimentResult traced = runGeomancy();
    collector.disable();

    ASSERT_EQ(plain.totalAccesses, traced.totalAccesses);
    for (size_t i = 0; i < plain.throughputSeries.size(); ++i)
        ASSERT_DOUBLE_EQ(plain.throughputSeries[i],
                         traced.throughputSeries[i])
            << "tracing changed the simulation at access " << i;
    EXPECT_EQ(plain.filesMoved, traced.filesMoved);
    EXPECT_EQ(plain.bytesMoved, traced.bytesMoved);

    // The traced run must have produced the decision-cycle spans.
    std::string json = collector.toJson();
    EXPECT_NE(json.find("\"name\":\"cycle\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"monitor\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"predict\""), std::string::npos);
    collector.clear();
}

TEST(Observability, PipelineCountersPopulateDuringARun)
{
    util::MetricRegistry &registry = util::MetricRegistry::global();
    registry.reset();
    ExperimentResult result = runGeomancy();
    EXPECT_GT(result.totalAccesses, 0u);

    EXPECT_GT(registry.counterValue("monitor.records_observed"), 0u);
    EXPECT_GT(registry.counterValue("monitor.batches_sent"), 0u);
    EXPECT_GT(registry.counterValue("geomancy.cycles"), 0u);
    EXPECT_GT(registry.counterValue("drl.train_steps"), 0u);
    // Short run, but moves were applied (the fig5a shape depends on
    // it), so the control-agent accounting must line up with the
    // experiment result.
    EXPECT_EQ(registry.counterValue("control.bytes_moved"),
              result.bytesMoved);
    EXPECT_EQ(registry.counterValue("control.moves_applied"),
              static_cast<uint64_t>(result.filesMoved));

    // Snapshots export cleanly mid-process.
    EXPECT_NE(registry.toJson().find("geo-metrics-1"), std::string::npos);
    EXPECT_FALSE(registry.toPrometheus().empty());
}

TEST(Observability, RegistryResetBetweenRunsIsolatesCounts)
{
    util::MetricRegistry &registry = util::MetricRegistry::global();
    registry.reset();
    runGeomancy();
    uint64_t first = registry.counterValue("geomancy.cycles");
    ASSERT_GT(first, 0u);
    registry.reset();
    runGeomancy();
    EXPECT_EQ(registry.counterValue("geomancy.cycles"), first);
}

} // namespace
} // namespace core
} // namespace geo
