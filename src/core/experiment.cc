#include "core/experiment.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.hh"
#include "util/smoothing.hh"
#include "util/stats.hh"

namespace geo {
namespace core {

std::vector<double>
ExperimentResult::smoothedSeries(size_t window) const
{
    return movingAverage(throughputSeries, window);
}

std::vector<double>
ExperimentResult::bucketedSeries(size_t bucket) const
{
    if (bucket == 0)
        panic("bucketedSeries: bucket must be >= 1");
    std::vector<double> out;
    for (size_t begin = 0; begin < throughputSeries.size();
         begin += bucket) {
        size_t end = std::min(begin + bucket, throughputSeries.size());
        double sum = std::accumulate(throughputSeries.begin() +
                                         static_cast<long>(begin),
                                     throughputSeries.begin() +
                                         static_cast<long>(end),
                                     0.0);
        out.push_back(sum / static_cast<double>(end - begin));
    }
    return out;
}

ExperimentRunner::ExperimentRunner(storage::StorageSystem &system,
                                   workload::Belle2Workload &workload,
                                   PlacementPolicy &policy,
                                   const ExperimentConfig &config)
    : system_(system), workload_(workload), policy_(policy),
      config_(config), rng_(config.seed)
{
    if (config_.cadence == 0)
        panic("ExperimentRunner: cadence must be >= 1");
}

void
ExperimentRunner::setRunHook(std::function<void(size_t)> hook)
{
    runHook_ = std::move(hook);
}

void
ExperimentRunner::setCheckpointHook(std::function<void(size_t)> hook)
{
    checkpointHook_ = std::move(hook);
}

void
ExperimentRunner::recordUsage(
    const std::vector<storage::AccessObservation> &observations)
{
    for (const storage::AccessObservation &obs : observations) {
        FileUsage &usage = usage_[obs.file];
        ++usage.accessCount;
        usage.lastAccessIndex = ++accessCounter_;
        usage.lastAccessTime = obs.endTime;
    }
}

std::vector<storage::DeviceId>
ExperimentRunner::rankDevices() const
{
    // Measured mean throughput where available ("the current total
    // average throughput at each storage device"), instantaneous
    // effective bandwidth as a cold-start fallback.
    std::vector<storage::DeviceId> ids = system_.deviceIds();
    double now = system_.clock().now();
    auto speed = [&](storage::DeviceId id) {
        const storage::StorageDevice &dev = system_.device(id);
        if (dev.accessCount() >= 8)
            return dev.throughputStats().mean();
        return dev.effectiveBandwidth(true, now);
    };
    std::sort(ids.begin(), ids.end(),
              [&](storage::DeviceId a, storage::DeviceId b) {
                  return speed(a) > speed(b);
              });
    return ids;
}

bool
ExperimentRunner::finished() const
{
    return warmupDone_ >= config_.warmupRuns && placedInitial_ &&
           measuredDone_ >= config_.measuredRuns;
}

bool
ExperimentRunner::step()
{
    if (finished())
        return false;

    // Warmup: collect history with the initial layout untouched.
    if (warmupDone_ < config_.warmupRuns) {
        recordUsage(workload_.executeRun());
        ++warmupDone_;
        return !finished();
    }

    // Static policies place once, at the start of measurement.
    if (!placedInitial_) {
        result_.policyName = policy_.name();
        result_.accessesPerDevice.assign(system_.deviceCount(), 0);
        movesBefore_ = system_.migrationCount();
        bytesBefore_ = system_.migratedBytes();
        std::vector<storage::DeviceId> ranked = rankDevices();
        PolicyContext context{system_, workload_.files(), usage_, ranked,
                              rng_};
        size_t moved = policy_.rebalance(context);
        if (moved > 0)
            result_.moveEvents.push_back({0, moved});
        placedInitial_ = true;
        return !finished();
    }

    size_t r = measuredDone_;
    std::vector<storage::AccessObservation> observations =
        workload_.executeRun();
    recordUsage(observations);
    for (const storage::AccessObservation &obs : observations) {
        result_.throughputSeries.push_back(obs.throughput);
        tpStats_.add(obs.throughput);
        ++result_.accessesPerDevice[obs.device];
    }

    if (runHook_)
        runHook_(r);

    bool last_run = (r + 1 == config_.measuredRuns);
    if (policy_.isDynamic() && !last_run &&
        (r + 1) % config_.cadence == 0) {
        std::vector<storage::DeviceId> ranked = rankDevices();
        PolicyContext context{system_, workload_.files(), usage_,
                              ranked, rng_};
        size_t moved = policy_.rebalance(context);
        if (moved > 0) {
            result_.moveEvents.push_back(
                {result_.throughputSeries.size(), moved});
        }
    }
    ++measuredDone_;
    // The cut point: the run (and any rebalance it triggered) is fully
    // applied and nothing of the next run has started.
    if (checkpointHook_)
        checkpointHook_(measuredDone_);
    return !finished();
}

ExperimentResult
ExperimentRunner::finish()
{
    result_.totalAccesses = result_.throughputSeries.size();
    result_.averageThroughput = tpStats_.mean();
    result_.filesMoved = system_.migrationCount() - movesBefore_;
    result_.bytesMoved = system_.migratedBytes() - bytesBefore_;
    return result_;
}

ExperimentResult
ExperimentRunner::run()
{
    while (step()) {
    }
    return finish();
}

void
ExperimentRunner::saveState(util::StateWriter &w) const
{
    w.rng("exp.rng", rng_);
    w.u64("exp.warmup_done", warmupDone_);
    w.u64("exp.measured_done", measuredDone_);
    w.boolean("exp.placed", placedInitial_);
    w.u64("exp.access_counter", accessCounter_);
    w.u64("exp.moves_before", movesBefore_);
    w.u64("exp.bytes_before", bytesBefore_);
    w.stat("exp.tp_stats", tpStats_);
    w.f64Vec("exp.series", result_.throughputSeries);
    std::vector<double> per_device(result_.accessesPerDevice.size());
    for (size_t i = 0; i < per_device.size(); ++i)
        per_device[i] = static_cast<double>(result_.accessesPerDevice[i]);
    w.f64Vec("exp.per_device", per_device);
    w.u64("exp.events", result_.moveEvents.size());
    for (const MoveEvent &ev : result_.moveEvents) {
        w.u64("ev.access", ev.accessNumber);
        w.u64("ev.moved", ev.filesMoved);
    }
    w.u64("exp.usage", usage_.size());
    for (const auto &[file, use] : usage_) {
        w.u64("use.file", file);
        w.u64("use.count", use.accessCount);
        w.u64("use.last_index", use.lastAccessIndex);
        w.f64("use.last_time", use.lastAccessTime);
    }
}

void
ExperimentRunner::loadState(util::StateReader &r)
{
    Rng::State rng = r.rng("exp.rng");
    uint64_t warmup = r.u64("exp.warmup_done");
    uint64_t measured = r.u64("exp.measured_done");
    bool placed = r.boolean("exp.placed");
    uint64_t access_counter = r.u64("exp.access_counter");
    uint64_t moves_before = r.u64("exp.moves_before");
    uint64_t bytes_before = r.u64("exp.bytes_before");
    StatAccumulator::State tp = r.stat("exp.tp_stats");
    std::vector<double> series = r.f64Vec("exp.series");
    std::vector<double> per_device = r.f64Vec("exp.per_device");
    // Events are allocated as they arrive: the count is untrusted.
    std::vector<MoveEvent> events;
    uint64_t event_count = r.u64("exp.events");
    for (uint64_t i = 0; i < event_count && r.ok(); ++i) {
        MoveEvent ev;
        ev.accessNumber = r.u64("ev.access");
        ev.filesMoved = r.u64("ev.moved");
        events.push_back(ev);
    }
    std::map<storage::FileId, FileUsage> usage;
    uint64_t usage_count = r.u64("exp.usage");
    for (uint64_t i = 0; i < usage_count && r.ok(); ++i) {
        storage::FileId file =
            static_cast<storage::FileId>(r.u64("use.file"));
        FileUsage use;
        use.accessCount = r.u64("use.count");
        use.lastAccessIndex = r.u64("use.last_index");
        use.lastAccessTime = r.f64("use.last_time");
        usage[file] = use;
    }
    // Once placed, one count per device, each a whole number that a
    // uint64_t holds (the cast below is undefined for anything else).
    if (placed && per_device.size() != system_.deviceCount())
        r.fail("exp: per-device counts do not match the devices");
    for (double count : per_device)
        if (!(count >= 0.0 && count < 0x1p64 && count == std::floor(count)))
            r.fail("exp: a per-device access count is not a count");
    if (!r.ok())
        return;
    rng_.setState(rng);
    warmupDone_ = warmup;
    measuredDone_ = measured;
    placedInitial_ = placed;
    accessCounter_ = access_counter;
    movesBefore_ = moves_before;
    bytesBefore_ = bytes_before;
    tpStats_.restore(tp);
    result_ = ExperimentResult{};
    result_.policyName = policy_.name();
    result_.throughputSeries = std::move(series);
    result_.accessesPerDevice.assign(per_device.size(), 0);
    for (size_t i = 0; i < per_device.size(); ++i)
        result_.accessesPerDevice[i] =
            static_cast<uint64_t>(per_device[i]);
    result_.moveEvents = std::move(events);
    usage_ = std::move(usage);
}

} // namespace core
} // namespace geo
