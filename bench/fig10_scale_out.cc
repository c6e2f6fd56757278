/**
 * @file
 * Fleet scale-out experiment (beyond the paper, "Fig. 10"): the wall
 * time of one coordinator round, and the files it decides per
 * wall-second, at 1/2/4(/8) shards over one shared substrate, against
 * the monolithic single-optimizer baseline.
 *
 * The workload is the BELLE II suite multiplied by a tenant count
 * (independent per-tenant seeds), partitioned over the shards by
 * stable hash. The 1-shard coordinator *is* the monolith — same code
 * path, no observe filter, no window scaling — so the comparison is
 * apples to apples. A round decides every managed file once whatever
 * the shard count; with N shards each shard's retrain covers ~1/N of
 * the fleet-wide telemetry window, and the N retrains run at once on
 * the global thread pool. The gate requires the 4-shard round to take
 * at most kRoundWallGate of the monolith's round wall time; it is
 * enforced only on a pool of at least 4 workers (reported otherwise).
 *
 * Invariants checked every round:
 *  - the cross-shard admission budget holds: no device is ever touched
 *    by more than maxMovesPerDevicePerRound admitted migrations in one
 *    round (as source or target);
 *  - the full pipeline cut (coordinator saveState) is digested per
 *    round; a same-seed twin of the 4-shard scenario must reproduce
 *    every round digest and the final checkpoint CRC byte-for-byte.
 *
 * GEO_FIG10_ROUNDS / GEO_FIG10_TENANTS override the scale (defaults
 * 6 rounds x 8 tenants reduced, 10 x 24 at GEO_BENCH_FULL=1).
 * Exits nonzero if the round-wall gate, the budget invariant or the
 * twin digest check fails.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/shard_coordinator.hh"
#include "experiment_common.hh"
#include "storage/bluesky.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/state_io.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"
#include "workload/belle2.hh"

namespace {

using namespace geo;

struct ScaleConfig
{
    size_t shards = 1;
    size_t tenants = 8;
    size_t cadence = 2; ///< workload runs between coordinator rounds
    uint64_t seed = 7;
    size_t epochs = 3;
};

/**
 * Gate: the 4-shard round's wall time over the monolith's, midway
 * between the two designs. With the scenarios interleaved, 11 runs
 * each on a 4-core Xeon, at the reduced scale and at bench_smoke's
 * 3 rounds x 4 tenants: shards that ran their whole cycles one after
 * another read 0.92-1.30; shards that retrain at once read 0.37-0.59.
 */
constexpr double kRoundWallGate = 0.75;

/** Pool size below which the gate only reports. */
constexpr size_t kGateWorkers = 4;

struct ScaleResult
{
    size_t shards = 0;
    size_t rounds = 0;
    double optimizerSeconds = 0.0; ///< wall time inside runRound()
    double meanRoundMs = 0.0;
    size_t filesDecided = 0; ///< managed files of deciding cycles
    double filesPerSec = 0.0; ///< filesDecided per optimizer second
    size_t applied = 0;
    uint64_t denied = 0;
    size_t peakDeviceMoves = 0;
    bool budgetOk = true;
    std::string digestLog;      ///< one CRC line per round
    uint32_t finalCrc = 0;      ///< CRC of the final checkpoint payload
};

/** A cycle decided its shard's files when it reached propose. */
bool
decided(const core::CycleReport &report)
{
    return !report.skipped && !report.probe && !report.safeMode;
}

/**
 * One shard count's fleet, advanced a round at a time so that main()
 * can interleave the scenarios' rounds: on a shared host every shard
 * count then runs under the same background load, and the round-wall
 * ratio compares like with like.
 */
class Fleet
{
  public:
    explicit Fleet(const ScaleConfig &sc)
        : sc_(sc), system_(storage::makeBlueskySystem(sc.seed))
    {
        workload::Belle2Config wcfg;
        wcfg.tenantCount = sc.tenants;
        workload_ =
            std::make_unique<workload::Belle2Workload>(*system_, wcfg);

        core::ShardCoordinatorConfig ccfg;
        ccfg.shardCount = sc.shards;
        ccfg.base.drl.epochs = sc.epochs;
        // Fleet-sized telemetry budget: the monolith pulls the full
        // window every cycle; the coordinator divides it across shards
        // so the fleet-wide budget stays constant.
        ccfg.base.daemon.windowPerDevice = 2000;
        ccfg.base.minHistory = 400;
        ccfg.base.sanityWindow = 4000;
        ccfg.maxMovesPerDevicePerRound = kMovesPerDevice;
        coordinator_ = std::make_unique<core::ShardCoordinator>(
            *system_, workload_->files(), ccfg);

        // Run-up so the first round already has telemetry to train on.
        for (size_t i = 0; i < 2; ++i)
            workload_->executeRun();
        res_.shards = sc.shards;
    }

    /** The workload's cadence runs, then one timed coordinator round
     *  with its budget check and state digest. */
    void
    round()
    {
        for (size_t r = 0; r < sc_.cadence; ++r)
            workload_->executeRun();

        auto began = std::chrono::steady_clock::now();
        std::vector<core::CycleReport> reports = coordinator_->runRound();
        res_.optimizerSeconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - began)
                .count();

        size_t round = ++res_.rounds;
        for (size_t i = 0; i < reports.size(); ++i) {
            res_.applied += reports[i].moves.applied;
            if (decided(reports[i]))
                res_.filesDecided += coordinator_->shardFiles(i).size();
        }
        for (storage::DeviceId d = 0; d < system_->deviceCount(); ++d) {
            const core::DeviceRoundUsage &usage =
                coordinator_->roundUsage(d);
            if (usage.moves > kMovesPerDevice) {
                warn("fig10[%zu shards, round %zu]: device %u saw %zu "
                     "admitted moves (budget %zu)",
                     sc_.shards, round, (unsigned)d, usage.moves,
                     kMovesPerDevice);
                res_.budgetOk = false;
            }
        }

        // Per-round digest of the full pipeline cut (every shard's
        // engine weights, RNG streams, retry queues, the system).
        std::ostringstream os;
        util::StateWriter w(os);
        coordinator_->saveState(w);
        res_.finalCrc = util::crc32(os.str());
        char line[64];
        std::snprintf(line, sizeof line, "%zu %08x\n", round,
                      res_.finalCrc);
        res_.digestLog += line;
    }

    ScaleResult
    result() const
    {
        ScaleResult res = res_;
        res.denied = coordinator_->movesDenied();
        res.peakDeviceMoves = coordinator_->peakDeviceMoves();
        if (res.optimizerSeconds > 0.0)
            res.filesPerSec = static_cast<double>(res.filesDecided) /
                              res.optimizerSeconds;
        if (res.rounds > 0)
            res.meanRoundMs = res.optimizerSeconds * 1000.0 /
                              static_cast<double>(res.rounds);
        return res;
    }

  private:
    /** Per-device admitted moves per round. */
    static constexpr size_t kMovesPerDevice = 4;

    ScaleConfig sc_;
    std::unique_ptr<storage::StorageSystem> system_;
    std::unique_ptr<workload::Belle2Workload> workload_;
    std::unique_ptr<core::ShardCoordinator> coordinator_;
    ScaleResult res_;
};

/** Run each config's fleet for `rounds` rounds, interleaved. */
std::vector<ScaleResult>
runInterleaved(const std::vector<ScaleConfig> &configs, size_t rounds)
{
    std::vector<std::unique_ptr<Fleet>> fleets;
    for (const ScaleConfig &sc : configs) {
        inform("fig10: %zu shard%s (%zu tenants, %zu rounds)",
               sc.shards, sc.shards == 1 ? "" : "s", sc.tenants, rounds);
        fleets.push_back(std::make_unique<Fleet>(sc));
    }
    for (size_t round = 0; round < rounds; ++round)
        for (auto &fleet : fleets)
            fleet->round();
    std::vector<ScaleResult> results;
    for (const auto &fleet : fleets)
        results.push_back(fleet->result());
    return results;
}

} // namespace

int
main()
{
    bench::BenchObservability observability;
    bench::header("Fig. 10 - fleet scale-out (shard coordinator)",
                  "multi-tenant extension (beyond the paper)");

    ScaleConfig base;
    size_t rounds = bench::knob("GEO_FIG10_ROUNDS", 6, 10);
    base.tenants = bench::knob("GEO_FIG10_TENANTS", 8, 24);
    base.epochs = bench::knob("GEO_DRL_EPOCHS", 3, 20);

    std::vector<size_t> counts = {1, 2, 4};
    if (bench::fullScale())
        counts.push_back(8);

    auto &registry = util::MetricRegistry::global();
    // Start the pool before any round is timed.
    size_t workers = util::ThreadPool::global().workerCount();
    std::vector<ScaleConfig> configs;
    for (size_t shards : counts) {
        configs.push_back(base);
        configs.back().shards = shards;
    }
    std::vector<ScaleResult> results = runInterleaved(configs, rounds);

    // Same-seed twin of the 4-shard scenario: every round digest and
    // the final checkpoint CRC must reproduce byte-for-byte.
    ScaleConfig twin_cfg = base;
    twin_cfg.shards = 4;
    inform("fig10: same-seed twin of the 4-shard scenario");
    ScaleResult twin = runInterleaved({twin_cfg}, rounds).front();
    const ScaleResult *four = nullptr;
    for (const ScaleResult &r : results)
        if (r.shards == 4)
            four = &r;
    if (!four)
        fatal("fig10: no 4-shard scenario ran");
    bool twin_identical = twin.digestLog == four->digestLog &&
                          twin.finalCrc == four->finalCrc;

    const ScaleResult &mono = results.front();
    double wall4 = mono.meanRoundMs > 0.0
                       ? four->meanRoundMs / mono.meanRoundMs
                       : 0.0;
    bool gated = workers >= kGateWorkers;
    bool budgets_ok = true;
    for (const ScaleResult &r : results)
        budgets_ok = budgets_ok && r.budgetOk;
    budgets_ok = budgets_ok && twin.budgetOk;

    TextTable table("Fig. 10: coordinator round wall time vs shards");
    table.setHeader({"shards", "rounds", "optimizer s", "round ms",
                     "files/s", "round vs monolith", "applied",
                     "denied", "peak dev moves"});
    for (const ScaleResult &r : results) {
        double ratio = mono.meanRoundMs > 0.0
                           ? r.meanRoundMs / mono.meanRoundMs
                           : 0.0;
        table.addRow({std::to_string(r.shards),
                      std::to_string(r.rounds),
                      TextTable::num(r.optimizerSeconds, 2),
                      TextTable::num(r.meanRoundMs, 1),
                      TextTable::num(r.filesPerSec, 0),
                      TextTable::num(ratio, 2) + "x",
                      std::to_string(r.applied),
                      std::to_string(r.denied),
                      std::to_string(r.peakDeviceMoves)});
        std::string prefix =
            "fig10.shards" + std::to_string(r.shards) + ".";
        registry.gauge(prefix + "round_ms").set(r.meanRoundMs);
        registry.gauge(prefix + "files_per_sec").set(r.filesPerSec);
        registry.gauge(prefix + "applied")
            .set(static_cast<double>(r.applied));
        registry.gauge(prefix + "denied")
            .set(static_cast<double>(r.denied));
        registry.gauge(prefix + "peak_device_moves")
            .set(static_cast<double>(r.peakDeviceMoves));
    }
    table.print(std::cout);

    registry.gauge("fig10.scenarios")
        .set(static_cast<double>(results.size()));
    registry.gauge("fig10.round_wall_4v1").set(wall4);
    registry.gauge("fig10.round_wall_gate").set(kRoundWallGate);
    registry.gauge("fig10.pool_workers").set(static_cast<double>(workers));
    registry.gauge("fig10.twin_identical")
        .set(twin_identical ? 1.0 : 0.0);
    registry.gauge("fig10.budget_ok").set(budgets_ok ? 1.0 : 0.0);

    std::printf("\n4-shard round wall time: %.2fx the monolith's (gate: "
                "<= %.2fx on >= %zu pool workers; %zu here%s)\n",
                wall4, kRoundWallGate, kGateWorkers, workers,
                gated ? "" : ", reported only");
    std::printf("per-device admission budgets: %s\n",
                budgets_ok ? "never exceeded" : "EXCEEDED");
    std::printf("same-seed twin (4 shards): %s\n",
                twin_identical ? "byte-identical digests and "
                                 "checkpoint CRC"
                               : "DIVERGED");

    bool pass = (!gated || wall4 <= kRoundWallGate) && budgets_ok &&
                twin_identical;
    if (!pass)
        std::printf("\nFAIL: scale-out gate not met\n");
    return pass ? 0 : 1;
}
