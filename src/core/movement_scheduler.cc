#include "core/movement_scheduler.hh"

#include <algorithm>

#include "util/flight_recorder.hh"
#include "util/logging.hh"

namespace geo {
namespace core {

MovementScheduler::MovementScheduler(storage::StorageSystem &system,
                                     const ReplayDb &db,
                                     const SchedulerConfig &config)
    : system_(system), gaps_(db, config.gaps), config_(config)
{
    if (config_.fileCooldownSeconds < 0.0)
        panic("MovementScheduler: negative cooldown");
    if (config_.gapSafetyFactor < 1.0)
        panic("MovementScheduler: gap safety factor must be >= 1");
    auto &registry = util::MetricRegistry::global();
    admittedMetric_ = &registry.counter("scheduler.admitted");
    rejectedCooldownMetric_ =
        &registry.counter("scheduler.rejected_cooldown");
    rejectedGapMetric_ = &registry.counter("scheduler.rejected_gap");
    rejectedBreakerMetric_ =
        &registry.counter("scheduler.rejected_breaker");
    breakerTripsMetric_ = &registry.counter("scheduler.breaker_trips");
    breakerProbesMetric_ = &registry.counter("scheduler.breaker_probes");
    breakerClosesMetric_ = &registry.counter("scheduler.breaker_closes");
}

double
MovementScheduler::expectedTransferSeconds(const CheckedMove &move,
                                           double now) const
{
    const storage::FileObject &f = system_.file(move.file);
    if (move.to >= system_.deviceCount())
        return 0.0;
    const storage::StorageDevice &src = system_.device(f.location);
    const storage::StorageDevice &dst = system_.device(move.to);
    double bw = std::min(src.effectiveBandwidth(true, now),
                         dst.effectiveBandwidth(false, now));
    if (bw <= 0.0)
        return 0.0;
    return static_cast<double>(f.sizeBytes) / bw;
}

void
MovementScheduler::pruneFailures(Breaker &breaker, double now)
{
    while (!breaker.failures.empty() &&
           now - breaker.failures.front() >
               config_.breaker.windowSeconds)
        breaker.failures.pop_front();
}

bool
MovementScheduler::breakerAdmits(storage::DeviceId target, double now)
{
    if (!config_.breaker.enabled)
        return true;
    auto it = breakers_.find(target);
    if (it == breakers_.end())
        return true;
    Breaker &breaker = it->second;
    switch (breaker.state) {
    case BreakerState::Closed:
        return true;
    case BreakerState::Open:
        if (now - breaker.openedAt < config_.breaker.cooldownSeconds)
            return false;
        breaker.state = BreakerState::HalfOpen;
        breaker.probeInFlight = false;
        inform("scheduler: breaker for device %u half-open at t=%.1f",
               (unsigned)target, now);
        [[fallthrough]];
    case BreakerState::HalfOpen:
        // Exactly one probe move is allowed through; further moves
        // wait for the probe's outcome.
        if (breaker.probeInFlight)
            return false;
        breaker.probeInFlight = true;
        breakerProbesMetric_->inc();
        return true;
    }
    return true;
}

BreakerState
MovementScheduler::breakerState(storage::DeviceId target, double now)
{
    if (!config_.breaker.enabled)
        return BreakerState::Closed;
    auto it = breakers_.find(target);
    if (it == breakers_.end())
        return BreakerState::Closed;
    Breaker &breaker = it->second;
    if (breaker.state == BreakerState::Open &&
        now - breaker.openedAt >= config_.breaker.cooldownSeconds) {
        breaker.state = BreakerState::HalfOpen;
        breaker.probeInFlight = false;
    }
    return breaker.state;
}

void
MovementScheduler::recordMoveOutcome(storage::DeviceId target,
                                     bool success, double now)
{
    if (!config_.breaker.enabled)
        return;
    Breaker &breaker = breakers_[target];
    if (success) {
        // Any success proves the device is taking writes again.
        if (breaker.state != BreakerState::Closed) {
            inform("scheduler: breaker for device %u closed at t=%.1f",
                   (unsigned)target, now);
            breakerClosesMetric_->inc();
        }
        breaker.state = BreakerState::Closed;
        breaker.probeInFlight = false;
        breaker.failures.clear();
        return;
    }
    if (breaker.state == BreakerState::HalfOpen) {
        // The probe failed: back to open, restart the cooldown.
        breaker.state = BreakerState::Open;
        breaker.openedAt = now;
        breaker.probeInFlight = false;
        breakerTripsMetric_->inc();
        util::FlightRecorder::global().record(
            util::FlightKind::BreakerTrip, now, target,
            breaker.failures.size());
        warn("scheduler: probe move onto device %u failed, breaker "
             "re-opened", (unsigned)target);
        return;
    }
    breaker.failures.push_back(now);
    pruneFailures(breaker, now);
    if (breaker.state == BreakerState::Closed &&
        breaker.failures.size() >= config_.breaker.failureThreshold) {
        breaker.state = BreakerState::Open;
        breaker.openedAt = now;
        breakerTripsMetric_->inc();
        util::FlightRecorder::global().record(
            util::FlightKind::BreakerTrip, now, target,
            breaker.failures.size());
        warn("scheduler: breaker for device %u opened after %zu "
             "failures in %.0f s", (unsigned)target,
             breaker.failures.size(), config_.breaker.windowSeconds);
    }
}

bool
MovementScheduler::admit(const CheckedMove &move, double now)
{
    auto it = lastMove_.find(move.file);
    if (it != lastMove_.end() &&
        now - it->second < config_.fileCooldownSeconds) {
        ++rejectedCooldown_;
        rejectedCooldownMetric_->inc();
        return false;
    }
    if (config_.checkGaps) {
        double transfer = expectedTransferSeconds(move, now);
        if (!gaps_.fitsInGap(move.file, transfer,
                             config_.gapSafetyFactor)) {
            ++rejectedGap_;
            rejectedGapMetric_->inc();
            return false;
        }
    }
    // Breaker last: a half-open breaker's single probe slot must only
    // be consumed by a move that will actually execute.
    if (!breakerAdmits(move.to, now)) {
        ++rejectedBreaker_;
        rejectedBreakerMetric_->inc();
        return false;
    }
    lastMove_[move.file] = now;
    admittedMetric_->inc();
    return true;
}

std::vector<CheckedMove>
MovementScheduler::admitAll(std::vector<CheckedMove> moves, double now)
{
    std::vector<CheckedMove> admitted;
    admitted.reserve(moves.size());
    for (CheckedMove &move : moves)
        if (admit(move, now))
            admitted.push_back(std::move(move));
    return admitted;
}

void
MovementScheduler::saveState(util::StateWriter &w) const
{
    w.u64("sched.rej_cooldown", rejectedCooldown_);
    w.u64("sched.rej_gap", rejectedGap_);
    w.u64("sched.rej_breaker", rejectedBreaker_);
    w.u64("sched.cooldowns", lastMove_.size());
    for (const auto &[file, at] : lastMove_) {
        w.u64("cd.file", file);
        w.f64("cd.at", at);
    }
    w.u64("sched.breakers", breakers_.size());
    for (const auto &[device, breaker] : breakers_) {
        w.u64("brk.device", device);
        w.u64("brk.state", static_cast<uint64_t>(breaker.state));
        w.f64("brk.opened_at", breaker.openedAt);
        w.boolean("brk.probe", breaker.probeInFlight);
        std::vector<double> failures(breaker.failures.begin(),
                                     breaker.failures.end());
        w.f64Vec("brk.failures", failures);
    }
}

void
MovementScheduler::loadState(util::StateReader &r)
{
    uint64_t rej_cooldown = r.u64("sched.rej_cooldown");
    uint64_t rej_gap = r.u64("sched.rej_gap");
    uint64_t rej_breaker = r.u64("sched.rej_breaker");
    std::map<storage::FileId, double> last_move;
    size_t cooldowns = r.u64("sched.cooldowns");
    for (size_t i = 0; i < cooldowns && r.ok(); ++i) {
        storage::FileId file = r.u64("cd.file");
        last_move[file] = r.f64("cd.at");
    }
    std::map<storage::DeviceId, Breaker> breakers;
    size_t count = r.u64("sched.breakers");
    for (size_t i = 0; i < count && r.ok(); ++i) {
        auto device = static_cast<storage::DeviceId>(r.u64("brk.device"));
        Breaker breaker;
        breaker.state = static_cast<BreakerState>(r.u64("brk.state"));
        breaker.openedAt = r.f64("brk.opened_at");
        breaker.probeInFlight = r.boolean("brk.probe");
        std::vector<double> failures = r.f64Vec("brk.failures");
        breaker.failures.assign(failures.begin(), failures.end());
        breakers[device] = breaker;
    }
    if (!r.ok())
        return;
    rejectedCooldown_ = rej_cooldown;
    rejectedGap_ = rej_gap;
    rejectedBreaker_ = rej_breaker;
    lastMove_ = std::move(last_move);
    breakers_ = std::move(breakers);
}

} // namespace core
} // namespace geo
