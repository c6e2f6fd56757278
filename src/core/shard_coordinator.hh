/**
 * @file
 * Fleet-scale shard coordinator: multi-tenant Geomancy over a shared
 * substrate.
 *
 * One Geomancy instance per shard — each with its own DRL engine,
 * monitoring agents, ReplayDB and checkpoint namespace — partitions a
 * large file population (stable hash or explicit tenant assignment)
 * while every shard drives the *same* storage::StorageSystem. The
 * coordinator owns everything cross-shard:
 *
 *  - Admission control. Shards propose migrations independently, so
 *    without arbitration N shards can stampede one device with N full
 *    migration batches at once. The coordinator implements the control
 *    agents' MoveAdmission hook with per-device, per-round budgets
 *    (concurrent-move count and bytes in flight, charged to both
 *    endpoints); a denied fresh move is dropped (the next cycle
 *    re-proposes from newer telemetry), a denied retry stays queued.
 *  - Safe-mode fan-out. A substrate-level fault trips one shard's
 *    guardrails organically; the coordinator immediately trips every
 *    co-tenant shard too (Guardrails::tripSafeMode) and abandons their
 *    pending retries, so the whole fleet freezes coherently instead of
 *    each shard rediscovering the fault on its own schedule.
 *  - Aggregated views. Every shard's metrics carry a "shard<i>." name
 *    prefix (rendered as a shard="i" label by the Prometheus
 *    exporter), ledgers write one NDJSON file per shard, and the
 *    coordinator's own coord.* metrics summarize rounds, denials and
 *    per-device budget peaks.
 *
 * Scaling comes from the partition and from retraining the shards at
 * once. Per-shard telemetry windows, history thresholds and sanity
 * windows are divided by the shard count (constant fleet-wide budget),
 * so each shard's decision cycle touches ~1/N of the telemetry a
 * monolithic optimizer would; and a round opens every shard in index
 * order, runs the N retrains side by side on the global thread pool
 * (the shard models share no data), then closes every shard in index
 * order. bench/fig10_scale_out measures the round's wall time.
 *
 * Determinism: opens and closes run in index order on the caller's
 * thread, so propose, migrate and admission charges are serial and
 * shard j > i proposes on the layout shard i left; a retrain reads
 * only its own shard's batch and model. Partitions are stable hashes
 * and per-shard seeds derive from the base seed and the shard index.
 * Same seed, same round count => byte-identical ledgers and
 * checkpoints (pinned by tests/core/test_shard_coordinator.cc).
 */

#ifndef GEO_CORE_SHARD_COORDINATOR_HH
#define GEO_CORE_SHARD_COORDINATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "core/geomancy.hh"
#include "storage/system.hh"
#include "util/metrics.hh"
#include "util/state_io.hh"

namespace geo {
namespace core {

/** Coordinator configuration. */
struct ShardCoordinatorConfig
{
    /** Shards (>= 1). One shard reproduces the monolithic optimizer
     *  exactly: no observe filter, no window scaling. */
    size_t shardCount = 1;

    /** Template for every shard's Geomancy; per-shard seed, observe
     *  filter and telemetry windows are derived from it (with N > 1
     *  shards, windowPerDevice / minHistory / sanityWindow are divided
     *  by N, with floors, so the fleet-wide telemetry and training
     *  budget stays constant as shards are added). */
    GeomancyConfig base;

    /** Per-device migration budget per coordinator round: at most this
     *  many admitted moves may touch one device (as source or target).
     *  0 = unlimited. */
    size_t maxMovesPerDevicePerRound = 6;

    /** Per-device bytes-in-flight budget per round (charged to both
     *  endpoints). 0 = unlimited. */
    uint64_t maxBytesInFlightPerDevice = 0;
};

/** One round's admission accounting for one device. */
struct DeviceRoundUsage
{
    size_t moves = 0;
    uint64_t bytes = 0;
};

/**
 * Multi-tenant scale-out: N Geomancy shards over one substrate.
 */
class ShardCoordinator : public MoveAdmission
{
  public:
    /**
     * Partition `files` over the shards by stable hash and build one
     * Geomancy per shard.
     *
     * @param system the shared target system (must outlive this).
     * @param files the whole managed population.
     * @param config coordinator knobs.
     * @param db_path ReplayDB base path; shard i opens
     *        "<db_path>.shard<i>" (":memory:" stays in memory).
     */
    ShardCoordinator(storage::StorageSystem &system,
                     const std::vector<storage::FileId> &files,
                     const ShardCoordinatorConfig &config,
                     const std::string &db_path = ":memory:");

    /**
     * Partition by explicit assignment (e.g. tenants): shard i manages
     * exactly `assignment[i]`. `assignment.size()` overrides
     * `config.shardCount`; no list may be empty.
     */
    ShardCoordinator(storage::StorageSystem &system,
                     const std::vector<std::vector<storage::FileId>>
                         &assignment,
                     const ShardCoordinatorConfig &config,
                     const std::string &db_path = ":memory:");

    /** Stable shard index of a file (splitmix64 % shardCount). */
    static size_t shardForFile(storage::FileId file, size_t shard_count);

    /**
     * One coordinator round: reset the admission budgets, open every
     * shard's decision cycle in index order, retrain all shards at once
     * on the global thread pool, then close every shard in index
     * order. A shard entering safe mode organically fans out to all
     * co-tenants before the next shard closes: a co-tenant tripped
     * that way has already retrained this round, but it neither
     * proposes nor migrates. Returns each shard's cycle report, by
     * shard index.
     */
    std::vector<CycleReport> runRound();

    // --- MoveAdmission ---------------------------------------------
    /** Charge-on-admit per-device budgets; deterministic. */
    bool admitMove(storage::DeviceId from, storage::DeviceId to,
                   uint64_t bytes) override;

    size_t shardCount() const { return shards_.size(); }
    Geomancy &shard(size_t i) { return *shards_[i]; }
    const std::vector<storage::FileId> &shardFiles(size_t i) const
    {
        return shards_[i]->managedFiles();
    }

    /** Rounds completed. */
    uint64_t roundsRun() const { return rounds_; }
    /** Admission denials, lifetime. */
    uint64_t movesDenied() const { return denied_; }
    /** Safe-mode fan-out propagations (co-tenant trips), lifetime. */
    uint64_t fanOuts() const { return fanOuts_; }
    /** Highest per-device admitted-move count seen in any round. */
    size_t peakDeviceMoves() const { return peakDeviceMoves_; }
    /** Highest per-device admitted-byte load seen in any round. */
    uint64_t peakDeviceBytes() const { return peakDeviceBytes_; }
    /** This round's usage for one device (testing/inspection). */
    const DeviceRoundUsage &roundUsage(storage::DeviceId device) const
    {
        return usage_[device];
    }

    /**
     * Attach one decision ledger per shard: shard i writes NDJSON to
     * "<base_path>.shard<i>", and its device gauges resolve under the
     * shard's "shard<i>." metric prefix.
     */
    void attachLedgers(const std::string &base_path);

    /** Ledger path of shard i under `base_path` (for cleanup). */
    static std::string ledgerPath(const std::string &base_path,
                                  size_t shard);
    /** ReplayDB path of shard i under `db_path`. */
    static std::string dbPath(const std::string &db_path, size_t shard);

    /**
     * Serialize every shard (in index order, each a full Geomancy cut
     * including the shared system — idempotent to reload N times) plus
     * the coordinator's own counters, under "coord." keys with a
     * per-shard "coord.shard" marker separating the namespaces.
     */
    void saveState(util::StateWriter &w);
    void loadState(util::StateReader &r);

  private:
    void build(const std::vector<std::vector<storage::FileId>>
                   &assignment,
               const std::string &db_path);
    void beginRound();
    void fanOutSafeMode(size_t origin);

    storage::StorageSystem &system_;
    ShardCoordinatorConfig config_;
    std::vector<std::unique_ptr<Geomancy>> shards_;
    std::vector<bool> wasSafe_; ///< per-shard safe-mode edge detector
    std::vector<DeviceRoundUsage> usage_; ///< this round, by device id

    uint64_t rounds_ = 0;
    uint64_t denied_ = 0;
    uint64_t fanOuts_ = 0;
    size_t peakDeviceMoves_ = 0;
    uint64_t peakDeviceBytes_ = 0;

    // Registry handles (unscoped coord.* names).
    util::Counter *roundsMetric_;
    util::Counter *deniedMetric_;
    util::Counter *admittedMetric_;
    util::Counter *fanOutsMetric_;
    util::Gauge *peakMovesGauge_;
    util::Gauge *peakBytesGauge_;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_SHARD_COORDINATOR_HH
