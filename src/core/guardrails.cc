#include "core/guardrails.hh"

#include <cmath>
#include <string>

#include "util/flight_recorder.hh"
#include "util/logging.hh"
#include "util/trace_event.hh"

namespace geo {
namespace core {

const char *
phaseName(Phase phase)
{
    static const char *const kNames[] = {"monitor", "train", "propose",
                                         "migrate"};
    return kNames[static_cast<size_t>(phase)];
}

const char *
quarantineReasonName(QuarantineReason reason)
{
    switch (reason) {
    case QuarantineReason::NonFinite:
        return "non_finite";
    case QuarantineReason::NegativeThroughput:
        return "negative_throughput";
    case QuarantineReason::BadDuration:
        return "bad_duration";
    case QuarantineReason::OutOfRange:
        return "out_of_range";
    case QuarantineReason::Future:
        return "future";
    case QuarantineReason::Stale:
        return "stale";
    case QuarantineReason::Duplicate:
        return "duplicate";
    }
    return "unknown";
}

Guardrails::Guardrails(const GuardrailsConfig &config, const SimClock &clock)
    : config_(config), clock_(clock)
{
    auto &registry = util::MetricRegistry::global();
    admittedMetric_ = &registry.counter("guardrails.admitted");
    quarantinedMetric_ = &registry.counter("guardrails.quarantined");
    for (size_t i = 0; i < kQuarantineReasonCount; ++i) {
        std::string name = "guardrails.quarantine.";
        name += quarantineReasonName(static_cast<QuarantineReason>(i));
        reasonMetrics_[i] = &registry.counter(name);
    }
    holdsMetric_ = &registry.counter("guardrails.holds");
    entriesMetric_ = &registry.counter("guardrails.safe_mode_entries");
    exitsMetric_ = &registry.counter("guardrails.safe_mode_exits");
    probesMetric_ = &registry.counter("guardrails.probe_cycles");
    safeCyclesMetric_ = &registry.counter("guardrails.safe_mode_cycles");
    safeModeGauge_ = &registry.gauge("guardrails.safe_mode");
    backoffGauge_ = &registry.gauge("guardrails.backoff_level");
}

bool
Guardrails::checkOnly(const PerfRecord &rec, const PerfRecord *prev,
                      QuarantineReason &reason) const
{
    double open_t = static_cast<double>(rec.ots) +
                    static_cast<double>(rec.otms) / 1000.0;
    double close_t = static_cast<double>(rec.cts) +
                     static_cast<double>(rec.ctms) / 1000.0;
    double now = clock_.now();

    if (!std::isfinite(rec.throughput)) {
        reason = QuarantineReason::NonFinite;
        return true;
    }
    if (rec.throughput < 0.0) {
        reason = QuarantineReason::NegativeThroughput;
        return true;
    }
    if (close_t < open_t) {
        reason = QuarantineReason::BadDuration;
        return true;
    }
    if (rec.throughput > kMaxThroughput || rec.rb > kMaxAccessBytes ||
        rec.wb > kMaxAccessBytes) {
        reason = QuarantineReason::OutOfRange;
        return true;
    }
    if (close_t > now + config_.maxFutureSkewSeconds) {
        reason = QuarantineReason::Future;
        return true;
    }
    if (close_t < now - config_.maxRecordAgeSeconds) {
        reason = QuarantineReason::Stale;
        return true;
    }
    if (prev && prev->file == rec.file && prev->device == rec.device &&
        prev->rb == rec.rb && prev->wb == rec.wb && prev->ots == rec.ots &&
        prev->otms == rec.otms && prev->cts == rec.cts &&
        prev->ctms == rec.ctms && prev->throughput == rec.throughput &&
        prev->failed == rec.failed) {
        reason = QuarantineReason::Duplicate;
        return true;
    }
    return false;
}

bool
Guardrails::admit(const PerfRecord &rec, const PerfRecord *prev)
{
    QuarantineReason reason;
    if (checkOnly(rec, prev, reason)) {
        quarantineRecord(rec, reason);
        return false;
    }
    ++admitted_;
    ++cycleAdmitted_;
    admittedMetric_->inc();
    return true;
}

void
Guardrails::quarantineRecord(const PerfRecord &rec, QuarantineReason reason)
{
    QuarantinedRecord entry;
    entry.record = rec;
    entry.reason = reason;
    entry.quarantinedAt = clock_.now();
    quarantine_.push_back(entry);
    while (quarantine_.size() > kQuarantineCapacity)
        quarantine_.pop_front();
    ++quarantined_;
    ++cycleQuarantined_;
    ++perReason_[static_cast<size_t>(reason)];
    quarantinedMetric_->inc();
    util::FlightRecorder::global().record(
        util::FlightKind::QuarantineReject, entry.quarantinedAt,
        static_cast<uint64_t>(reason), rec.device);
    reasonMetrics_[static_cast<size_t>(reason)]->inc();
}

void
Guardrails::beginCycle()
{
    cycleAdmitted_ = 0;
    cycleQuarantined_ = 0;
    cycleOverrun_ = false;
}

bool
Guardrails::holdLayout() const
{
    return cycleQuarantined_ > 0 && cycleAdmitted_ < kMinAdmittedPerCycle;
}

bool
Guardrails::quarantineFlood() const
{
    return cycleQuarantined_ >= kFloodMinQuarantined &&
           cycleQuarantined_ > cycleAdmitted_;
}

double
Guardrails::phaseBudget(Phase phase) const
{
    return phase == Phase::Migrate ? config_.migrateBudgetSeconds : 0.0;
}

void
Guardrails::beginPhase(Phase phase, double now)
{
    watchdog_.beginPhase(phaseName(phase), now, phaseBudget(phase));
}

void
Guardrails::endPhase(double now)
{
    if (watchdog_.poll(now))
        cycleOverrun_ = true;
    watchdog_.endPhase();
}

bool
Guardrails::probeDue(uint64_t cycle) const
{
    return safeMode_ && cycle >= nextProbeCycle_;
}

uint64_t
Guardrails::probeBackoffCycles() const
{
    uint64_t wait = kProbeBackoffBase;
    for (uint64_t i = 0; i < backoffLevel_; ++i) {
        wait *= kProbeBackoffMultiplier;
        if (wait >= kProbeBackoffMax)
            return kProbeBackoffMax;
    }
    return wait;
}

void
Guardrails::enterSafeMode(uint64_t cycle)
{
    safeMode_ = true;
    enteredCycle_ = cycle;
    backoffLevel_ = 0;
    nextProbeCycle_ = cycle + probeBackoffCycles();
    overrunStreak_ = 0;
    floodStreak_ = 0;
    divergenceStreak_ = 0;
    ++safeModeEntries_;
    entriesMetric_->inc();
    safeModeGauge_->set(1.0);
    backoffGauge_->set(0.0);
    warn("guardrails: entering SAFE MODE at cycle %llu (layout frozen, "
         "first probe at cycle %llu)",
         (unsigned long long)cycle, (unsigned long long)nextProbeCycle_);
    GEO_TRACE_INSTANT("guardrails", "safe_mode_enter", util::TimeDomain::Sim,
                      clock_.now());
    // Safe-mode entry is exactly the moment an operator wants the
    // recent event history: leave a post-mortem artifact now.
    util::FlightRecorder &recorder = util::FlightRecorder::global();
    recorder.record(util::FlightKind::SafeModeEnter, clock_.now(), cycle);
    recorder.crashDump("safe-mode");
}

void
Guardrails::exitSafeMode(uint64_t cycle)
{
    safeMode_ = false;
    backoffLevel_ = 0;
    nextProbeCycle_ = 0;
    overrunStreak_ = 0;
    floodStreak_ = 0;
    divergenceStreak_ = 0;
    ++safeModeExits_;
    exitsMetric_->inc();
    safeModeGauge_->set(0.0);
    backoffGauge_->set(0.0);
    util::FlightRecorder::global().record(
        util::FlightKind::SafeModeExit, clock_.now(), cycle);
    inform("guardrails: healthy probe, leaving safe mode at cycle %llu "
           "(entered at %llu)",
           (unsigned long long)cycle, (unsigned long long)enteredCycle_);
    GEO_TRACE_INSTANT("guardrails", "safe_mode_exit", util::TimeDomain::Sim,
                      clock_.now());
}

bool
Guardrails::tripSafeMode(uint64_t cycle)
{
    if (safeMode_)
        return false;
    enterSafeMode(cycle);
    return true;
}

GuardrailTransition
Guardrails::observeCycle(const CycleEvidence &evidence)
{
    if (evidence.held) {
        ++holds_;
        holdsMetric_->inc();
    }

    if (!safeMode_) {
        overrunStreak_ = evidence.overrun ? overrunStreak_ + 1 : 0;
        floodStreak_ = evidence.flood ? floodStreak_ + 1 : 0;
        divergenceStreak_ = evidence.diverged ? divergenceStreak_ + 1 : 0;
        if (overrunStreak_ >= kOverrunTripThreshold ||
            floodStreak_ >= kFloodTripThreshold ||
            divergenceStreak_ >= kDivergenceTripThreshold) {
            enterSafeMode(evidence.cycle);
            return GuardrailTransition::Entered;
        }
        return GuardrailTransition::None;
    }

    ++safeModeCycles_;
    safeCyclesMetric_->inc();
    if (!evidence.probe)
        return GuardrailTransition::None;

    ++probeCycles_;
    probesMetric_->inc();
    bool healthy = evidence.trained && !evidence.diverged &&
                   !evidence.flood && !evidence.overrun && !evidence.held;
    if (healthy) {
        exitSafeMode(evidence.cycle);
        return GuardrailTransition::Exited;
    }
    ++backoffLevel_;
    backoffGauge_->set(static_cast<double>(backoffLevel_));
    nextProbeCycle_ = evidence.cycle + probeBackoffCycles();
    warn("guardrails: probe at cycle %llu unhealthy, next probe at "
         "cycle %llu (backoff level %llu)",
         (unsigned long long)evidence.cycle,
         (unsigned long long)nextProbeCycle_,
         (unsigned long long)backoffLevel_);
    return GuardrailTransition::None;
}

void
Guardrails::saveState(util::StateWriter &w) const
{
    w.boolean("grd.safe_mode", safeMode_);
    w.u64("grd.overrun_streak", overrunStreak_);
    w.u64("grd.flood_streak", floodStreak_);
    w.u64("grd.div_streak", divergenceStreak_);
    w.u64("grd.backoff_level", backoffLevel_);
    w.u64("grd.next_probe", nextProbeCycle_);
    w.u64("grd.entered_cycle", enteredCycle_);
    w.u64("grd.entries", safeModeEntries_);
    w.u64("grd.exits", safeModeExits_);
    w.u64("grd.probe_cycles", probeCycles_);
    w.u64("grd.safe_cycles", safeModeCycles_);
    w.u64("grd.holds", holds_);
    w.u64("grd.admitted", admitted_);
    w.u64("grd.quarantined", quarantined_);
    for (size_t i = 0; i < kQuarantineReasonCount; ++i)
        w.u64("grd.reason", perReason_[i]);
    w.u64("grd.overruns", watchdog_.overruns());
}

void
Guardrails::loadState(util::StateReader &r)
{
    bool safe = r.boolean("grd.safe_mode");
    uint64_t overrun_streak = r.u64("grd.overrun_streak");
    uint64_t flood_streak = r.u64("grd.flood_streak");
    uint64_t div_streak = r.u64("grd.div_streak");
    uint64_t backoff = r.u64("grd.backoff_level");
    uint64_t next_probe = r.u64("grd.next_probe");
    uint64_t entered = r.u64("grd.entered_cycle");
    uint64_t entries = r.u64("grd.entries");
    uint64_t exits = r.u64("grd.exits");
    uint64_t probes = r.u64("grd.probe_cycles");
    uint64_t safe_cycles = r.u64("grd.safe_cycles");
    uint64_t holds = r.u64("grd.holds");
    uint64_t admitted = r.u64("grd.admitted");
    uint64_t quarantined = r.u64("grd.quarantined");
    uint64_t per_reason[kQuarantineReasonCount];
    for (size_t i = 0; i < kQuarantineReasonCount; ++i)
        per_reason[i] = r.u64("grd.reason");
    uint64_t overruns = r.u64("grd.overruns");
    if (!r.ok())
        return;
    safeMode_ = safe;
    overrunStreak_ = overrun_streak;
    floodStreak_ = flood_streak;
    divergenceStreak_ = div_streak;
    backoffLevel_ = backoff;
    nextProbeCycle_ = next_probe;
    enteredCycle_ = entered;
    safeModeEntries_ = entries;
    safeModeExits_ = exits;
    probeCycles_ = probes;
    safeModeCycles_ = safe_cycles;
    holds_ = holds;
    admitted_ = admitted;
    quarantined_ = quarantined;
    for (size_t i = 0; i < kQuarantineReasonCount; ++i)
        perReason_[i] = per_reason[i];
    watchdog_.setOverruns(overruns);
    quarantine_.clear();
    cycleAdmitted_ = 0;
    cycleQuarantined_ = 0;
    cycleOverrun_ = false;
    safeModeGauge_->set(safeMode_ ? 1.0 : 0.0);
    backoffGauge_->set(static_cast<double>(backoffLevel_));
    if (safeMode_)
        inform("guardrails: restored into safe mode (entered at cycle "
               "%llu, next probe at %llu)",
               (unsigned long long)enteredCycle_,
               (unsigned long long)nextProbeCycle_);
}

} // namespace core
} // namespace geo
