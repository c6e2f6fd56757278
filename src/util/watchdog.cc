#include "util/watchdog.hh"

#include "util/logging.hh"
#include "util/trace_event.hh"

namespace geo {
namespace util {

Watchdog::Watchdog()
{
    overrunMetric_ =
        &MetricRegistry::global().counter("guardrails.deadline_exceeded");
}

void
Watchdog::beginPhase(const char *phase, double now, double budget_seconds)
{
    phase_ = phase;
    start_ = now;
    budget_ = budget_seconds;
    active_ = true;
    fired_ = false;
}

bool
Watchdog::poll(double now)
{
    if (fired_)
        return true;
    if (!active_ || budget_ <= 0.0)
        return false;
    if (now - start_ <= budget_)
        return false;
    fired_ = true;
    ++overruns_;
    overrunMetric_->inc();
    warn("watchdog: phase '%s' overran its %.3fs budget "
         "(%.3fs elapsed), cancelling", phase_, budget_, now - start_);
    GEO_TRACE_INSTANT("guardrails", "deadline_exceeded",
                      TimeDomain::Sim, now);
    return true;
}

void
Watchdog::endPhase()
{
    active_ = false;
    phase_ = "";
}

} // namespace util
} // namespace geo
