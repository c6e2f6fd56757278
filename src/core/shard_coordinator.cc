#include "core/shard_coordinator.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "util/trace_event.hh"

namespace geo {
namespace core {

namespace {

/** Golden-ratio stride keeps per-shard seed streams independent. */
constexpr uint64_t kSeedStride = 0x9E3779B97F4A7C15ULL;

/**
 * Derive shard i's Geomancy knobs from the coordinator's template.
 * A single shard is the monolithic optimizer exactly: no observe
 * filter, no window scaling, the template's own seeds.
 */
GeomancyConfig
shardConfig(const ShardCoordinatorConfig &coord, size_t shard,
            size_t shard_count)
{
    GeomancyConfig cfg = coord.base;
    cfg.seed = coord.base.seed + shard * kSeedStride;
    cfg.drl.seed = coord.base.drl.seed + shard * kSeedStride;
    cfg.observeOnlyManaged = shard_count > 1;
    if (shard_count > 1) {
        // Constant fleet-wide budget: each shard trains on ~1/N of
        // the telemetry a monolithic optimizer would pull, with
        // floors so tiny fleets still learn.
        cfg.daemon.windowPerDevice = std::max<size_t>(
            256, coord.base.daemon.windowPerDevice / shard_count);
        cfg.minHistory =
            std::max<size_t>(64, coord.base.minHistory / shard_count);
        if (coord.base.sanityWindow > 0)
            cfg.sanityWindow = std::max<size_t>(
                256, coord.base.sanityWindow / shard_count);
    }
    return cfg;
}

/** The metric name prefix of shard i; the Prometheus exporter renders
 *  it as a shard="i" label on the shared base name. */
std::string
shardScope(size_t shard)
{
    return strprintf("shard%zu.", shard);
}

} // namespace

size_t
ShardCoordinator::shardForFile(storage::FileId file, size_t shard_count)
{
    if (shard_count == 0)
        panic("ShardCoordinator: shard_count must be >= 1");
    uint64_t state = file;
    return static_cast<size_t>(splitmix64(state) % shard_count);
}

std::string
ShardCoordinator::dbPath(const std::string &db_path, size_t shard)
{
    if (db_path == ":memory:")
        return db_path;
    return strprintf("%s.shard%zu", db_path.c_str(), shard);
}

std::string
ShardCoordinator::ledgerPath(const std::string &base_path, size_t shard)
{
    return strprintf("%s.shard%zu", base_path.c_str(), shard);
}

ShardCoordinator::ShardCoordinator(
    storage::StorageSystem &system,
    const std::vector<storage::FileId> &files,
    const ShardCoordinatorConfig &config, const std::string &db_path)
    : system_(system), config_(config)
{
    if (config_.shardCount == 0)
        panic("ShardCoordinator: shardCount must be >= 1");
    std::vector<std::vector<storage::FileId>> assignment(
        config_.shardCount);
    for (storage::FileId file : files)
        assignment[shardForFile(file, config_.shardCount)]
            .push_back(file);
    build(assignment, db_path);
}

ShardCoordinator::ShardCoordinator(
    storage::StorageSystem &system,
    const std::vector<std::vector<storage::FileId>> &assignment,
    const ShardCoordinatorConfig &config, const std::string &db_path)
    : system_(system), config_(config)
{
    config_.shardCount = assignment.size();
    build(assignment, db_path);
}

void
ShardCoordinator::build(
    const std::vector<std::vector<storage::FileId>> &assignment,
    const std::string &db_path)
{
    if (assignment.empty())
        panic("ShardCoordinator: no shards");
    for (size_t i = 0; i < assignment.size(); ++i) {
        if (assignment[i].empty())
            panic("ShardCoordinator: shard %zu has no files (population "
                  "too small for %zu shards?)", i, assignment.size());
    }

    auto &registry = util::MetricRegistry::global();
    shards_.reserve(assignment.size());
    for (size_t i = 0; i < assignment.size(); ++i) {
        // Everything a shard's constructor resolves lands under the
        // shard's prefix.
        util::MetricScope scope(registry, shardScope(i));
        shards_.push_back(std::make_unique<Geomancy>(
            system_, assignment[i],
            shardConfig(config_, i, assignment.size()),
            dbPath(db_path, i)));
    }
    for (auto &shard : shards_)
        shard->controlAgent().setAdmission(this);
    wasSafe_.assign(shards_.size(), false);
    usage_.assign(system_.deviceCount(), DeviceRoundUsage{});

    roundsMetric_ = &registry.counter("coord.rounds");
    deniedMetric_ = &registry.counter("coord.moves_denied");
    admittedMetric_ = &registry.counter("coord.moves_admitted");
    fanOutsMetric_ = &registry.counter("coord.safe_mode_fanouts");
    peakMovesGauge_ = &registry.gauge("coord.peak_device_moves");
    peakBytesGauge_ = &registry.gauge("coord.peak_device_bytes");
    registry.setHelp("coord.rounds",
                     "Coordinator rounds (one decision cycle per "
                     "shard) completed");
    registry.setHelp("coord.moves_denied",
                     "Migrations denied by the cross-shard per-device "
                     "budgets");
    registry.setHelp("coord.moves_admitted",
                     "Migrations admitted by the cross-shard budgets");
    registry.setHelp("coord.safe_mode_fanouts",
                     "Co-tenant shards force-tripped into safe mode "
                     "by the coordinator");
    registry.setHelp("coord.peak_device_moves",
                     "Highest per-device admitted-move count in any "
                     "round");
    registry.setHelp("coord.peak_device_bytes",
                     "Highest per-device admitted byte load in any "
                     "round");

    inform("coordinator: %zu shard%s over %zu devices, budgets "
           "moves/device/round=%zu bytes/device/round=%llu",
           shards_.size(), shards_.size() == 1 ? "" : "s",
           system_.deviceCount(), config_.maxMovesPerDevicePerRound,
           static_cast<unsigned long long>(
               config_.maxBytesInFlightPerDevice));
    for (size_t i = 0; i < shards_.size(); ++i)
        inform("coordinator: shard %zu manages %zu file%s", i,
               assignment[i].size(),
               assignment[i].size() == 1 ? "" : "s");
}

void
ShardCoordinator::attachLedgers(const std::string &base_path)
{
    for (size_t i = 0; i < shards_.size(); ++i) {
        util::MetricScope scope(util::MetricRegistry::global(),
                                shardScope(i));
        shards_[i]->attachLedger(ledgerPath(base_path, i));
    }
}

void
ShardCoordinator::beginRound()
{
    usage_.assign(system_.deviceCount(), DeviceRoundUsage{});
}

bool
ShardCoordinator::admitMove(storage::DeviceId from, storage::DeviceId to,
                            uint64_t bytes)
{
    // A same-device request never transfers anything (the control
    // agent records it as Skipped); don't charge budget for it. Out of
    // range ids pass through for the same reason.
    if (from == to || from >= usage_.size() || to >= usage_.size())
        return true;
    size_t max_moves = config_.maxMovesPerDevicePerRound;
    uint64_t max_bytes = config_.maxBytesInFlightPerDevice;
    DeviceRoundUsage &src = usage_[from];
    DeviceRoundUsage &dst = usage_[to];
    bool moves_ok = max_moves == 0 ||
                    (src.moves < max_moves && dst.moves < max_moves);
    bool bytes_ok = max_bytes == 0 ||
                    (src.bytes + bytes <= max_bytes &&
                     dst.bytes + bytes <= max_bytes);
    if (!moves_ok || !bytes_ok) {
        ++denied_;
        deniedMetric_->inc();
        return false;
    }
    // Charge on admit, both endpoints: the budget bounds how much
    // migration traffic one device can see per round, whichever side
    // of the transfer it is on.
    ++src.moves;
    ++dst.moves;
    src.bytes += bytes;
    dst.bytes += bytes;
    admittedMetric_->inc();
    return true;
}

void
ShardCoordinator::fanOutSafeMode(size_t origin)
{
    for (size_t j = 0; j < shards_.size(); ++j) {
        if (j == origin)
            continue;
        Geomancy &shard = *shards_[j];
        if (!shard.guardrails().tripSafeMode(shard.cyclesRun()))
            continue; // already safe (or guardrails disabled)
        shard.controlAgent().abandonPending();
        wasSafe_[j] = true;
        ++fanOuts_;
        fanOutsMetric_->inc();
        warn("coordinator: shard %zu force-tripped into safe mode "
             "(fan-out from shard %zu)", j, origin);
    }
}

std::vector<CycleReport>
ShardCoordinator::runRound()
{
    GEO_SPAN("coord", "round");
    beginRound();
    // SQLite, the daemon and every decision stay on this thread; only
    // the retrains, which share no data, run side by side (the caller
    // takes part; a retrain's matrix products run inline on a worker
    // and are too small to fan out on the caller).
    for (auto &shard : shards_)
        shard->openCycle();
    util::ThreadPool::global().parallelFor(
        shards_.size(), 1, [this](size_t, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                shards_[i]->retrainCycle();
        });
    std::vector<CycleReport> reports;
    reports.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
        reports.push_back(shards_[i]->closeCycle());
        bool safe = shards_[i]->guardrails().safeMode();
        if (safe && !wasSafe_[i])
            fanOutSafeMode(i);
        wasSafe_[i] = safe;
    }
    ++rounds_;
    roundsMetric_->inc();
    for (const DeviceRoundUsage &u : usage_) {
        peakDeviceMoves_ = std::max(peakDeviceMoves_, u.moves);
        peakDeviceBytes_ = std::max(peakDeviceBytes_, u.bytes);
    }
    peakMovesGauge_->set(static_cast<double>(peakDeviceMoves_));
    peakBytesGauge_->set(static_cast<double>(peakDeviceBytes_));
    return reports;
}

void
ShardCoordinator::saveState(util::StateWriter &w)
{
    w.u64("coord.shards", shards_.size());
    w.u64("coord.rounds", rounds_);
    w.u64("coord.denied", denied_);
    w.u64("coord.fanouts", fanOuts_);
    w.u64("coord.peak_moves", peakDeviceMoves_);
    w.u64("coord.peak_bytes", peakDeviceBytes_);
    for (size_t i = 0; i < shards_.size(); ++i) {
        // The marker keys both namespace the shard sections and make a
        // snapshot from a different shard count fail key validation
        // instead of silently misloading.
        w.u64("coord.shard", i);
        shards_[i]->saveState(w);
    }
}

void
ShardCoordinator::loadState(util::StateReader &r)
{
    uint64_t shard_count = r.u64("coord.shards");
    uint64_t rounds = r.u64("coord.rounds");
    uint64_t denied = r.u64("coord.denied");
    uint64_t fanouts = r.u64("coord.fanouts");
    uint64_t peak_moves = r.u64("coord.peak_moves");
    uint64_t peak_bytes = r.u64("coord.peak_bytes");
    if (r.ok() && shard_count != shards_.size()) {
        r.fail(strprintf("snapshot has %llu shards, coordinator has %zu",
                         static_cast<unsigned long long>(shard_count),
                         shards_.size()));
        return;
    }
    if (!r.ok())
        return;
    for (size_t i = 0; i < shards_.size(); ++i) {
        uint64_t marker = r.u64("coord.shard");
        if (r.ok() && marker != i) {
            r.fail(strprintf("shard marker %llu where %zu expected",
                             static_cast<unsigned long long>(marker),
                             i));
        }
        if (!r.ok())
            return;
        shards_[i]->loadState(r);
        if (!r.ok())
            return;
    }
    rounds_ = rounds;
    denied_ = denied;
    fanOuts_ = fanouts;
    peakDeviceMoves_ = static_cast<size_t>(peak_moves);
    peakDeviceBytes_ = peak_bytes;
    for (size_t i = 0; i < shards_.size(); ++i)
        wasSafe_[i] = shards_[i]->guardrails().safeMode();
}

} // namespace core
} // namespace geo
