/**
 * @file
 * The experiment harness (paper Section VI).
 *
 * Drives a workload over the target system under one placement policy:
 * warmup runs first (the paper collects ~10,000 accesses before any
 * experiment), then measurement runs with the policy rebalancing every
 * `cadence` runs (Geomancy moves data every five runs of the
 * workload). Time is represented by access number, as in all of the
 * paper's figures.
 */

#ifndef GEO_CORE_EXPERIMENT_HH
#define GEO_CORE_EXPERIMENT_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/policies.hh"
#include "storage/system.hh"
#include "util/random.hh"
#include "util/state_io.hh"
#include "util/stats.hh"
#include "workload/belle2.hh"

namespace geo {
namespace core {

/** Experiment configuration. */
struct ExperimentConfig
{
    size_t warmupRuns = 4;      ///< runs before the policy first acts
    size_t measuredRuns = 40;   ///< runs in the measured phase
    size_t cadence = 5;         ///< rebalance every N runs (paper: 5)
    uint64_t seed = 31;
};

/** A rebalance event on the access-number axis (the Fig. 5 bars). */
struct MoveEvent
{
    size_t accessNumber = 0;
    size_t filesMoved = 0;
};

/** Everything measured during one experiment. */
struct ExperimentResult
{
    std::string policyName;
    std::vector<double> throughputSeries;  ///< per access, bytes/s
    std::vector<MoveEvent> moveEvents;
    double averageThroughput = 0.0;        ///< bytes/s over the series
    size_t totalAccesses = 0;
    uint64_t bytesMoved = 0;
    uint64_t filesMoved = 0;
    /** accesses served per device (utilization, Table IV). */
    std::vector<uint64_t> accessesPerDevice;

    /** Moving average of the throughput series (plot-friendly). */
    std::vector<double> smoothedSeries(size_t window) const;

    /** Series downsampled to one mean point per `bucket` accesses. */
    std::vector<double> bucketedSeries(size_t bucket) const;
};

/**
 * Runs one workload/policy pair and collects the series.
 */
class ExperimentRunner
{
  public:
    /**
     * @param system target system.
     * @param workload the tuned workload.
     * @param policy placement policy under test.
     * @param config phases and cadence.
     */
    ExperimentRunner(storage::StorageSystem &system,
                     workload::Belle2Workload &workload,
                     PlacementPolicy &policy,
                     const ExperimentConfig &config = {});

    /**
     * Hook invoked after every measured run (run index, result so
     * far); used by the Fig. 6 bench to start the interference
     * workload mid-experiment.
     */
    void setRunHook(std::function<void(size_t)> hook);

    /**
     * Hook invoked at the end of each completed measured run — the
     * consistent-cut boundary the sim tool checkpoints at. The
     * argument is the number of measured runs completed so far.
     */
    void setCheckpointHook(std::function<void(size_t)> hook);

    /** Execute warmup + measurement; returns the collected result. */
    ExperimentResult run();

    /**
     * Advance the experiment by one unit — a warmup run, the policy's
     * initial placement, or one measured run. @return true while more
     * work remains. run() is just `while (step());` + finish().
     */
    bool step();

    /** Whether every phase has completed. */
    bool finished() const;

    /** Measured runs completed so far. */
    size_t measuredRunsDone() const { return measuredDone_; }

    /** Finalize totals and return the result collected so far. */
    ExperimentResult finish();

    /**
     * Serialize the runner's progress cursor: phase counters, the
     * partial series and usage map, the experiment RNG. Combined with
     * the system/workload/pipeline state this makes a mid-experiment
     * checkpoint resumable byte-identically.
     */
    void saveState(util::StateWriter &w) const;
    void loadState(util::StateReader &r);

  private:
    storage::StorageSystem &system_;
    workload::Belle2Workload &workload_;
    PlacementPolicy &policy_;
    ExperimentConfig config_;
    Rng rng_;
    std::function<void(size_t)> runHook_;
    std::function<void(size_t)> checkpointHook_;

    std::map<storage::FileId, FileUsage> usage_;
    size_t accessCounter_ = 0;

    // Resumable progress (all checkpointed).
    ExperimentResult result_;
    StatAccumulator tpStats_;
    size_t warmupDone_ = 0;
    size_t measuredDone_ = 0;
    bool placedInitial_ = false;
    uint64_t movesBefore_ = 0;
    uint64_t bytesBefore_ = 0;

    /** Track per-file usage from one run's observations. */
    void recordUsage(
        const std::vector<storage::AccessObservation> &observations);

    /** Devices ordered fastest-first by measured mean throughput. */
    std::vector<storage::DeviceId> rankDevices() const;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_EXPERIMENT_HH
