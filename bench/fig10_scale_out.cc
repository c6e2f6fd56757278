/**
 * @file
 * Fleet scale-out experiment (beyond the paper, "Fig. 10"): aggregate
 * optimizer throughput and decision-cycle latency of the shard
 * coordinator at 1/2/4(/8) shards over one shared substrate, against
 * the monolithic single-optimizer baseline.
 *
 * The workload is the BELLE II suite multiplied by a tenant count
 * (independent per-tenant seeds), partitioned over the shards by
 * stable hash. The 1-shard coordinator *is* the monolith — same code
 * path, no observe filter, no window scaling — so the comparison is
 * apples to apples. With N shards each decision cycle trains on ~1/N
 * of the fleet-wide telemetry window and scores ~1/N of the files, so
 * aggregate optimizer throughput (decision cycles completed per second
 * of optimizer wall time, workload execution excluded) should approach
 * N times the monolith's. The gate requires >= 2x at 4 shards.
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
 * Exits nonzero if the speedup gate, the budget invariant or the twin
 * digest check fails.
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
#include "workload/belle2.hh"

namespace {

using namespace geo;

struct ScaleConfig
{
    size_t shards = 1;
    size_t tenants = 8;
    size_t rounds = 6;
    size_t cadence = 2; ///< workload runs between coordinator rounds
    uint64_t seed = 7;
    size_t epochs = 3;
};

struct ScaleResult
{
    size_t shards = 0;
    size_t cycles = 0;          ///< decision cycles completed
    double optimizerSeconds = 0.0;
    double cyclesPerSec = 0.0;
    double meanCycleMs = 0.0;
    size_t applied = 0;
    uint64_t denied = 0;
    size_t peakDeviceMoves = 0;
    bool budgetOk = true;
    std::string digestLog;      ///< one CRC line per round
    uint32_t finalCrc = 0;      ///< CRC of the final checkpoint payload
};

ScaleResult
runScale(const ScaleConfig &sc)
{
    auto system = storage::makeBlueskySystem(sc.seed);
    workload::Belle2Config wcfg;
    wcfg.tenantCount = sc.tenants;
    workload::Belle2Workload workload(*system, wcfg);

    core::ShardCoordinatorConfig ccfg;
    ccfg.shardCount = sc.shards;
    ccfg.base.drl.epochs = sc.epochs;
    // Fleet-sized telemetry budget: the monolith pulls the full
    // window every cycle; the coordinator divides it across shards so
    // the fleet-wide budget stays constant.
    ccfg.base.daemon.windowPerDevice = 2000;
    ccfg.base.minHistory = 400;
    ccfg.base.sanityWindow = 4000;
    ccfg.maxMovesPerDevicePerRound = 4;
    core::ShardCoordinator coordinator(*system, workload.files(), ccfg);

    // Run-up so the first round already has telemetry to train on.
    for (size_t i = 0; i < 2; ++i)
        workload.executeRun();

    ScaleResult res;
    res.shards = sc.shards;
    for (size_t round = 1; round <= sc.rounds; ++round) {
        for (size_t r = 0; r < sc.cadence; ++r)
            workload.executeRun();

        auto began = std::chrono::steady_clock::now();
        std::vector<core::CycleReport> reports = coordinator.runRound();
        res.optimizerSeconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - began)
                .count();

        res.cycles += reports.size();
        for (const core::CycleReport &report : reports)
            res.applied += report.moves.applied;
        for (storage::DeviceId d = 0; d < system->deviceCount(); ++d) {
            const core::DeviceRoundUsage &usage =
                coordinator.roundUsage(d);
            if (ccfg.maxMovesPerDevicePerRound > 0 &&
                usage.moves > ccfg.maxMovesPerDevicePerRound) {
                warn("fig10[%zu shards, round %zu]: device %u saw %zu "
                     "admitted moves (budget %zu)",
                     sc.shards, round, (unsigned)d, usage.moves,
                     ccfg.maxMovesPerDevicePerRound);
                res.budgetOk = false;
            }
        }

        // Per-round digest of the full pipeline cut (every shard's
        // engine weights, RNG streams, retry queues, the system).
        std::ostringstream os;
        util::StateWriter w(os);
        coordinator.saveState(w);
        std::string payload = os.str();
        char line[64];
        std::snprintf(line, sizeof line, "%zu %08x\n", round,
                      util::crc32(payload));
        res.digestLog += line;
        if (round == sc.rounds)
            res.finalCrc = util::crc32(payload);
    }

    res.denied = coordinator.movesDenied();
    res.peakDeviceMoves = coordinator.peakDeviceMoves();
    if (res.optimizerSeconds > 0.0)
        res.cyclesPerSec =
            static_cast<double>(res.cycles) / res.optimizerSeconds;
    if (res.cycles > 0)
        res.meanCycleMs = res.optimizerSeconds * 1000.0 /
                          static_cast<double>(res.cycles);
    return res;
}

} // namespace

int
main()
{
    bench::BenchObservability observability;
    bench::header("Fig. 10 - fleet scale-out (shard coordinator)",
                  "multi-tenant extension (beyond the paper)");

    ScaleConfig base;
    base.rounds = bench::knob("GEO_FIG10_ROUNDS", 6, 10);
    base.tenants = bench::knob("GEO_FIG10_TENANTS", 8, 24);
    base.epochs = bench::knob("GEO_DRL_EPOCHS", 3, 20);

    std::vector<size_t> counts = {1, 2, 4};
    if (bench::fullScale())
        counts.push_back(8);

    auto &registry = util::MetricRegistry::global();
    std::vector<ScaleResult> results;
    for (size_t shards : counts) {
        ScaleConfig sc = base;
        sc.shards = shards;
        inform("fig10: measuring %zu shard%s (%zu tenants, %zu rounds)",
               shards, shards == 1 ? "" : "s", sc.tenants, sc.rounds);
        results.push_back(runScale(sc));
    }

    // Same-seed twin of the 4-shard scenario: every round digest and
    // the final checkpoint CRC must reproduce byte-for-byte.
    ScaleConfig twin_cfg = base;
    twin_cfg.shards = 4;
    inform("fig10: same-seed twin of the 4-shard scenario");
    ScaleResult twin = runScale(twin_cfg);
    const ScaleResult *four = nullptr;
    for (const ScaleResult &r : results)
        if (r.shards == 4)
            four = &r;
    if (!four)
        fatal("fig10: no 4-shard scenario ran");
    bool twin_identical = twin.digestLog == four->digestLog &&
                          twin.finalCrc == four->finalCrc;

    const ScaleResult &mono = results.front();
    double speedup4 = mono.cyclesPerSec > 0.0
                          ? four->cyclesPerSec / mono.cyclesPerSec
                          : 0.0;
    bool budgets_ok = true;
    for (const ScaleResult &r : results)
        budgets_ok = budgets_ok && r.budgetOk;
    budgets_ok = budgets_ok && twin.budgetOk;

    TextTable table("Fig. 10: aggregate optimizer throughput vs shards");
    table.setHeader({"shards", "cycles", "optimizer s", "cycles/s",
                     "mean cycle ms", "vs monolith", "applied",
                     "denied", "peak dev moves"});
    for (const ScaleResult &r : results) {
        double speedup = mono.cyclesPerSec > 0.0
                             ? r.cyclesPerSec / mono.cyclesPerSec
                             : 0.0;
        table.addRow({std::to_string(r.shards),
                      std::to_string(r.cycles),
                      TextTable::num(r.optimizerSeconds, 2),
                      TextTable::num(r.cyclesPerSec, 2),
                      TextTable::num(r.meanCycleMs, 1),
                      TextTable::num(speedup, 2) + "x",
                      std::to_string(r.applied),
                      std::to_string(r.denied),
                      std::to_string(r.peakDeviceMoves)});
        std::string prefix =
            "fig10.shards" + std::to_string(r.shards) + ".";
        registry.gauge(prefix + "cycles_per_sec").set(r.cyclesPerSec);
        registry.gauge(prefix + "mean_cycle_ms").set(r.meanCycleMs);
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
    registry.gauge("fig10.speedup_4v1").set(speedup4);
    registry.gauge("fig10.twin_identical")
        .set(twin_identical ? 1.0 : 0.0);
    registry.gauge("fig10.budget_ok").set(budgets_ok ? 1.0 : 0.0);

    std::printf("\n4-shard aggregate optimizer throughput: %.2fx the "
                "monolith (gate: >= 2x)\n", speedup4);
    std::printf("per-device admission budgets: %s\n",
                budgets_ok ? "never exceeded" : "EXCEEDED");
    std::printf("same-seed twin (4 shards): %s\n",
                twin_identical ? "byte-identical digests and "
                                 "checkpoint CRC"
                               : "DIVERGED");

    bool pass = speedup4 >= 2.0 && budgets_ok && twin_identical;
    if (!pass)
        std::printf("\nFAIL: scale-out gate not met\n");
    return pass ? 0 : 1;
}
