#include "storage/fault_injector.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "storage/system.hh"
#include "util/flight_recorder.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/supervise.hh"
#include "util/trace_event.hh"

namespace geo {
namespace storage {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::TransientErrors:
        return "transient-errors";
      case FaultKind::Degradation:
        return "degradation";
      case FaultKind::Outage:
        return "outage";
      case FaultKind::CorruptTelemetry:
        return "corrupt-telemetry";
      case FaultKind::StaleTelemetry:
        return "stale-telemetry";
      case FaultKind::ClockSkew:
        return "clock-skew";
    }
    return "unknown";
}

const char *
crashPointName(CrashPoint point)
{
    switch (point) {
      case CrashPoint::None:
        return "none";
      case CrashPoint::AfterTrain:
        return "after-train";
      case CrashPoint::AfterPropose:
        return "after-propose";
      case CrashPoint::MidMigration:
        return "mid-migration";
      case CrashPoint::AfterCommit:
        return "after-commit";
    }
    return "unknown";
}

bool
parseCrashPoint(const std::string &text, CrashPoint &out)
{
    for (CrashPoint point :
         {CrashPoint::None, CrashPoint::AfterTrain,
          CrashPoint::AfterPropose, CrashPoint::MidMigration,
          CrashPoint::AfterCommit}) {
        if (text == crashPointName(point)) {
            out = point;
            return true;
        }
    }
    return false;
}

namespace {

void
validateEvent(const FaultEvent &event, size_t device_count)
{
    if (event.device >= device_count)
        panic("FaultInjector: event on unknown device %u", event.device);
    if (event.kind == FaultKind::TransientErrors &&
        (event.magnitude < 0.0 || event.magnitude > 1.0))
        panic("FaultInjector: error probability %f out of [0, 1]",
              event.magnitude);
    if (event.kind == FaultKind::Degradation &&
        (event.magnitude <= 0.0 || event.magnitude > 1.0))
        panic("FaultInjector: degradation factor %f out of (0, 1]",
              event.magnitude);
    if (event.kind == FaultKind::CorruptTelemetry &&
        (event.magnitude < 0.0 || event.magnitude > 1.0))
        panic("FaultInjector: corruption probability %f out of [0, 1]",
              event.magnitude);
    if ((event.kind == FaultKind::StaleTelemetry ||
         event.kind == FaultKind::ClockSkew) &&
        event.magnitude <= 0.0)
        panic("FaultInjector: %s shift %f must be positive",
              faultKindName(event.kind), event.magnitude);
}

} // namespace

FaultInjector::FaultInjector(StorageSystem &system,
                             FaultInjectorConfig config)
    : system_(system), schedule_(std::move(config.schedule)),
      rng_(config.seed)
{
    for (const FaultEvent &event : schedule_)
        validateEvent(event, system_.deviceCount());
    wasActive_.assign(schedule_.size(), false);
    errorProb_.assign(system_.deviceCount(), 0.0);
    corruptProb_.assign(system_.deviceCount(), 0.0);
    staleShift_.assign(system_.deviceCount(), 0.0);
    skewShift_.assign(system_.deviceCount(), 0.0);
    auto &registry = util::MetricRegistry::global();
    injectedFailuresMetric_ =
        &registry.counter("faults.injected_failures");
    corruptedRecordsMetric_ =
        &registry.counter("faults.telemetry_corrupted");
    applyState(0.0);
}

void
FaultInjector::addEvent(const FaultEvent &event)
{
    validateEvent(event, system_.deviceCount());
    schedule_.push_back(event);
    wasActive_.push_back(false);
    applyState(now_);
}

void
FaultInjector::onTransition(TransitionHook hook)
{
    hooks_.push_back(std::move(hook));
}

void
FaultInjector::advanceTo(double now)
{
    // The schedule is evaluated against absolute sim time, so moving
    // backwards (concurrent accesses reuse the current time) is fine.
    now_ = std::max(now_, now);
    applyState(now_);
}

void
FaultInjector::applyState(double now)
{
    size_t devices = system_.deviceCount();
    if (errorProb_.size() < devices)
        errorProb_.resize(devices, 0.0);
    if (corruptProb_.size() < devices)
        corruptProb_.resize(devices, 0.0);
    if (staleShift_.size() < devices)
        staleShift_.resize(devices, 0.0);
    if (skewShift_.size() < devices)
        skewShift_.resize(devices, 0.0);
    std::vector<double> factor(devices, 1.0);
    std::vector<bool> offline(devices, false);
    std::fill(errorProb_.begin(), errorProb_.end(), 0.0);
    std::fill(corruptProb_.begin(), corruptProb_.end(), 0.0);
    std::fill(staleShift_.begin(), staleShift_.end(), 0.0);
    std::fill(skewShift_.begin(), skewShift_.end(), 0.0);

    for (size_t i = 0; i < schedule_.size(); ++i) {
        const FaultEvent &event = schedule_[i];
        bool active = event.activeAt(now);
        if (active != wasActive_[i]) {
            wasActive_[i] = active;
            inform("fault %s on device %u %s at t=%.1f",
                   faultKindName(event.kind), event.device,
                   active ? "begins" : "ends", now);
            util::MetricRegistry::global()
                .counter("faults.transitions")
                .inc();
            GEO_TRACE_INSTANT("fault",
                              active ? "fault_begins" : "fault_ends",
                              util::TimeDomain::Sim, now);
            for (const TransitionHook &hook : hooks_)
                hook(event, active, now);
        }
        if (!active)
            continue;
        switch (event.kind) {
          case FaultKind::TransientErrors:
            errorProb_[event.device] =
                std::max(errorProb_[event.device], event.magnitude);
            break;
          case FaultKind::Degradation:
            factor[event.device] =
                std::min(factor[event.device], event.magnitude);
            break;
          case FaultKind::Outage:
            offline[event.device] = true;
            break;
          case FaultKind::CorruptTelemetry:
            corruptProb_[event.device] =
                std::max(corruptProb_[event.device], event.magnitude);
            break;
          case FaultKind::StaleTelemetry:
            staleShift_[event.device] =
                std::max(staleShift_[event.device], event.magnitude);
            break;
          case FaultKind::ClockSkew:
            skewShift_[event.device] =
                std::max(skewShift_[event.device], event.magnitude);
            break;
        }
    }
    for (DeviceId id = 0; id < devices; ++id) {
        StorageDevice &dev = system_.device(id);
        dev.setHealthFactor(factor[id]);
        dev.setOffline(offline[id]);
    }
}

bool
FaultInjector::shouldFailAccess(DeviceId device)
{
    if (device >= errorProb_.size())
        return false;
    double p = errorProb_[device];
    if (p <= 0.0)
        return false;
    bool fail = rng_.chance(p);
    if (fail) {
        ++injectedFailures_;
        injectedFailuresMetric_->inc();
    }
    return fail;
}

bool
FaultInjector::mutateTelemetry(AccessObservation &obs,
                               bool &emit_duplicate)
{
    emit_duplicate = false;
    DeviceId dev = obs.device;
    if (dev >= corruptProb_.size())
        return false;
    bool mutated = false;
    // Deterministic timestamp shifts: a delayed delivery path (stale)
    // and a sensor clock running ahead of the daemon (skew). No
    // randomness consumed — purely schedule-driven.
    if (staleShift_[dev] > 0.0) {
        obs.startTime -= staleShift_[dev];
        obs.endTime -= staleShift_[dev];
        mutated = true;
    }
    if (skewShift_[dev] > 0.0) {
        obs.startTime += skewShift_[dev];
        obs.endTime += skewShift_[dev];
        mutated = true;
    }
    double p = corruptProb_[dev];
    if (p > 0.0 && rng_.chance(p)) {
        // Mangle one field per corrupted record, covering every
        // quarantine class the validator must catch.
        switch (rng_.uniformInt(0, 5)) {
          case 0: // NaN reward
            obs.throughput = std::numeric_limits<double>::quiet_NaN();
            break;
          case 1: // negative reward
            obs.throughput = -obs.throughput - 1.0;
            break;
          case 2: // absurd byte count (feature overflow)
            obs.readBytes = 1ULL << 60;
            break;
          case 3: // close before open (negative duration)
            obs.endTime = obs.startTime - 1.0;
            break;
          case 4: // close time deep in the future
            obs.endTime = obs.startTime + 1e7;
            break;
          default: // the sensor repeats itself
            emit_duplicate = true;
            break;
        }
        ++corruptedRecords_;
        corruptedRecordsMetric_->inc();
        mutated = true;
    }
    return mutated;
}

void
FaultInjector::armCrash(CrashPoint point, uint64_t cycle)
{
    armedPoint_ = point;
    armedCycle_ = cycle;
    if (point != CrashPoint::None)
        inform("fault: crash armed at %s, cycle >= %llu",
               crashPointName(point),
               static_cast<unsigned long long>(cycle));
}

void
FaultInjector::maybeCrash(CrashPoint point)
{
    if (armedPoint_ != point || currentCycle_ < armedCycle_)
        return;
    warn("fault: injected crash at %s (cycle %llu); exiting with "
         "code %d", crashPointName(point),
         static_cast<unsigned long long>(currentCycle_),
         util::kCrashExitCode);
    // Post-mortem artifacts first: the kill point is a stand-in for a
    // real crash, and a real crash should leave the flight ring and
    // the buffered trace tail behind for diagnosis.
    util::FlightRecorder &recorder = util::FlightRecorder::global();
    recorder.record(util::FlightKind::CrashPoint, now_,
                    static_cast<uint64_t>(point), currentCycle_);
    recorder.crashDump("killpoint");
    util::TraceCollector::global().crashFlush();
    // _Exit, not exit(): a real crash runs no destructors, flushes no
    // buffers and fires no atexit hooks. Anything not already durable
    // is lost — exactly what restore must cope with.
    std::_Exit(util::kCrashExitCode);
}

void
FaultInjector::saveState(util::StateWriter &w) const
{
    w.f64("fault.now", now_);
    w.rng("fault.rng", rng_);
    w.u64("fault.injected", injectedFailures_);
    w.u64("fault.corrupted", corruptedRecords_);
    std::vector<double> active(wasActive_.size(), 0.0);
    for (size_t i = 0; i < wasActive_.size(); ++i)
        active[i] = wasActive_[i] ? 1.0 : 0.0;
    w.f64Vec("fault.was_active", active);
}

void
FaultInjector::loadState(util::StateReader &r)
{
    double now = r.f64("fault.now");
    Rng::State rng = r.rng("fault.rng");
    uint64_t injected = r.u64("fault.injected");
    uint64_t corrupted = r.u64("fault.corrupted");
    std::vector<double> active = r.f64Vec("fault.was_active");
    if (!r.ok())
        return;
    if (active.size() != schedule_.size()) {
        r.fail("fault: schedule size changed since the checkpoint");
        return;
    }
    now_ = now;
    rng_.setState(rng);
    injectedFailures_ = injected;
    corruptedRecords_ = corrupted;
    for (size_t i = 0; i < active.size(); ++i)
        wasActive_[i] = active[i] != 0.0;
    applyState(now_);
}

} // namespace storage
} // namespace geo
