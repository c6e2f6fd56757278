/**
 * @file
 * Shared setup for the live-system experiment harnesses (Figs. 5a/5b/6
 * and Table IV): builds identical fresh Bluesky systems per policy so
 * every policy faces the same workload and contention dynamics.
 */

#ifndef GEO_BENCH_EXPERIMENT_COMMON_HH
#define GEO_BENCH_EXPERIMENT_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "bench_common.hh"
#include "core/experiment.hh"
#include "storage/bluesky.hh"
#include "util/metrics.hh"
#include "util/trace_event.hh"
#include "workload/belle2.hh"

namespace geo {
namespace bench {

/**
 * Opt-in observability for the bench harnesses, driven by environment
 * variables so the default runs stay untouched (fig5a byte-equality):
 *
 *   GEO_TRACE_OUT=FILE    collect a Chrome trace of the run
 *   GEO_METRICS_OUT=FILE  dump the metric registry as JSON at exit
 *
 * Construct one at the top of main(); the destructor writes the files.
 */
class BenchObservability
{
  public:
    BenchObservability()
    {
        if (const char *path = std::getenv("GEO_TRACE_OUT")) {
            tracePath_ = path;
            util::TraceCollector::global().enable();
        }
        if (const char *path = std::getenv("GEO_METRICS_OUT"))
            metricsPath_ = path;
        util::MetricRegistry::global().reset();
    }

    ~BenchObservability()
    {
        if (!tracePath_.empty()) {
            util::TraceCollector &collector =
                util::TraceCollector::global();
            collector.disable();
            if (collector.writeJsonFile(tracePath_))
                std::fprintf(stderr, "trace written to %s\n",
                             tracePath_.c_str());
        }
        if (!metricsPath_.empty() &&
            util::MetricRegistry::global().writeJsonFile(metricsPath_))
            std::fprintf(stderr, "metrics written to %s\n",
                         metricsPath_.c_str());
    }

  private:
    std::string tracePath_;
    std::string metricsPath_;
};

/** The policies the paper's experiments compare. */
enum class PolicyKind {
    NoOp,
    Lru,
    Mru,
    Lfu,
    RandomStatic,
    RandomDynamic,
    GeomancyStatic,
    GeomancyDynamic,
    SingleMount,
};

/** Everything one policy run owns. */
struct ExperimentSetup
{
    std::unique_ptr<storage::StorageSystem> system;
    std::unique_ptr<workload::Belle2Workload> workload;
    std::unique_ptr<core::Geomancy> geomancy; ///< only for Geomancy runs
    std::unique_ptr<core::PlacementPolicy> policy;
};

/** Geomancy configuration scaled by the bench knobs. */
inline core::GeomancyConfig
benchGeomancyConfig()
{
    core::GeomancyConfig config;
    config.drl.epochs = knob("GEO_DRL_EPOCHS", 20, 60);
    config.minHistory = 500;
    return config;
}

/** Experiment phases scaled by the bench knobs (paper: 300 runs). */
inline core::ExperimentConfig
benchExperimentConfig()
{
    core::ExperimentConfig config;
    config.warmupRuns = knob("GEO_WARMUP_RUNS", 6, 25);
    config.measuredRuns = knob("GEO_MEASURED_RUNS", 100, 300);
    config.cadence = 5; // Geomancy moves data every five runs
    return config;
}

/**
 * Build a fresh system + workload + policy. Every setup with the same
 * `seed` sees identical external traffic and workload randomness, so
 * policy comparisons are apples-to-apples.
 */
inline ExperimentSetup
makeSetup(PolicyKind kind, uint64_t seed = 7,
          storage::DeviceId single_mount = 0,
          const std::vector<storage::DeviceConfig> *device_configs =
              nullptr)
{
    ExperimentSetup setup;
    if (device_configs) {
        setup.system = std::make_unique<storage::StorageSystem>();
        for (const storage::DeviceConfig &config : *device_configs)
            setup.system->addDevice(config);
    } else {
        setup.system = storage::makeBlueskySystem(seed);
    }
    setup.workload =
        std::make_unique<workload::Belle2Workload>(*setup.system);

    switch (kind) {
      case PolicyKind::NoOp:
        setup.policy = std::make_unique<core::NoOpPolicy>();
        break;
      case PolicyKind::Lru:
        setup.policy = std::make_unique<core::LruPolicy>();
        break;
      case PolicyKind::Mru:
        setup.policy = std::make_unique<core::MruPolicy>();
        break;
      case PolicyKind::Lfu:
        setup.policy = std::make_unique<core::LfuPolicy>();
        break;
      case PolicyKind::RandomStatic:
        setup.policy = std::make_unique<core::RandomPolicy>(false);
        break;
      case PolicyKind::RandomDynamic:
        setup.policy = std::make_unique<core::RandomPolicy>(true);
        break;
      case PolicyKind::GeomancyStatic:
        setup.geomancy = std::make_unique<core::Geomancy>(
            *setup.system, setup.workload->files(),
            benchGeomancyConfig());
        setup.policy =
            std::make_unique<core::GeomancyStaticPolicy>(*setup.geomancy);
        break;
      case PolicyKind::GeomancyDynamic:
        setup.geomancy = std::make_unique<core::Geomancy>(
            *setup.system, setup.workload->files(),
            benchGeomancyConfig());
        setup.policy =
            std::make_unique<core::GeomancyDynamicPolicy>(*setup.geomancy);
        break;
      case PolicyKind::SingleMount:
        setup.policy =
            std::make_unique<core::SingleMountPolicy>(single_mount);
        break;
    }
    return setup;
}

/** Run one policy end to end. */
inline core::ExperimentResult
runPolicy(PolicyKind kind, uint64_t seed = 7,
          storage::DeviceId single_mount = 0,
          const std::vector<storage::DeviceConfig> *device_configs =
              nullptr)
{
    ExperimentSetup setup =
        makeSetup(kind, seed, single_mount, device_configs);
    core::ExperimentRunner runner(*setup.system, *setup.workload,
                                  *setup.policy, benchExperimentConfig());
    return runner.run();
}

} // namespace bench
} // namespace geo

#endif // GEO_BENCH_EXPERIMENT_COMMON_HH
