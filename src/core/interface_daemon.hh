/**
 * @file
 * The Interface Daemon (paper Sections V-A, V-E): networking
 * middleware between the target system's agents and Geomancy.
 *
 * It stores raw performance data into the ReplayDB (charging the
 * paper's ~3 ms per batch transfer cost to an overhead counter), and
 * prepares training batches for the DRL engine: the X most recent
 * accesses for each storage device, throughput smoothed by a moving
 * average, all values min-max normalized into [0, 1].
 */

#ifndef GEO_CORE_INTERFACE_DAEMON_HH
#define GEO_CORE_INTERFACE_DAEMON_HH

#include <vector>

#include "core/replay_db.hh"
#include "nn/dataset.hh"
#include "trace/normalizer.hh"
#include "util/state_io.hh"

namespace geo {
namespace core {

/** Simulated transfer latency charged per forwarded batch (seconds);
 *  the paper measures ~3 ms on average. */
constexpr double kBatchTransferSeconds = 0.003;

/** Interface Daemon configuration. */
struct DaemonConfig
{
    /** Most recent accesses pulled per device per training request. */
    size_t windowPerDevice = 2000;
    /** Moving-average window for target smoothing (Section V-E). */
    size_t smoothingWindow = 8;
};

/** A normalized training view plus the scalers to invert it. */
struct TrainingBatch
{
    nn::Dataset dataset;
    trace::MinMaxNormalizer featureNorm;
    trace::MinMaxNormalizer targetNorm;

    /**
     * Normalize a raw Z-feature row with this batch's scalers, writing
     * `count` doubles to `out` (allocation-free; `raw` and `out` may
     * alias). An unfitted scaler copies the row through.
     */
    void normalizeFeaturesInto(const double *raw, size_t count,
                               double *out) const;

    /** Denormalize a model output back to bytes/s. */
    double denormalizeTarget(double normalized) const;
};

/**
 * Middleware between monitoring agents, the ReplayDB and the engine.
 */
class InterfaceDaemon
{
  public:
    InterfaceDaemon(ReplayDb &db, const DaemonConfig &config = {});

    /** Sink for monitoring-agent batches: persists to the ReplayDB. */
    void receiveBatch(const std::vector<PerfRecord> &records);

    /**
     * Build a normalized training batch from the most recent
     * `windowPerDevice` accesses of each of `devices`, merged in
     * chronological order (by row id) straight from the ReplayDB's
     * device rings.
     *
     * @return an empty dataset if the ReplayDB has no samples yet.
     */
    TrainingBatch buildTrainingBatch(
        const std::vector<storage::DeviceId> &devices) const;

    /** Accumulated simulated transfer latency (seconds). */
    double transferOverheadSeconds() const { return transferOverhead_; }

    /** Batches received from agents. */
    uint64_t batchesReceived() const { return batchesReceived_; }

    /** Serialize the overhead accumulators (the training window
     *  itself lives in the ReplayDB and is covered by its watermark). */
    void saveState(util::StateWriter &w) const;
    void loadState(util::StateReader &r);

  private:
    ReplayDb &db_;
    DaemonConfig config_;
    double transferOverhead_ = 0.0;
    uint64_t batchesReceived_ = 0;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_INTERFACE_DAEMON_HH
