/**
 * @file
 * Phase watchdog for the decision cycle.
 *
 * Each pipeline phase can be given a SimClock budget. The watchdog
 * does not preempt anything: the control agent polls it between
 * migration attempts and stops starting new ones once the budget is
 * blown. The first overrun of a phase bumps the
 * `guardrails.deadline_exceeded` counter and drops a trace instant;
 * later polls of the same phase just keep reporting the overrun.
 *
 * Threading: beginPhase()/poll()/endPhase() belong to the cycle's
 * owning thread.
 */

#ifndef GEO_UTIL_WATCHDOG_HH
#define GEO_UTIL_WATCHDOG_HH

#include <cstdint>

#include "util/metrics.hh"

namespace geo {
namespace util {

/**
 * Deadline monitor for one phase at a time.
 */
class Watchdog
{
  public:
    Watchdog();

    /**
     * Arm the watchdog for a phase starting at sim time `now` with
     * `budget_seconds` of sim time to spend (<= 0 disables the
     * deadline).
     */
    void beginPhase(const char *phase, double now, double budget_seconds);

    /**
     * Check the deadline at sim time `now`. Returns true once the
     * phase has overrun (and keeps returning true until the next
     * beginPhase). The first overrun records the metric + trace
     * instant.
     */
    bool poll(double now);

    /** Close the phase; the overrun count survives, the arm does not. */
    void endPhase();

    /** True when the currently armed phase has fired. */
    bool firedThisPhase() const { return fired_; }

    /** Lifetime overrun count (restored from checkpoints by the
     *  owning Guardrails, not here). */
    uint64_t overruns() const { return overruns_; }
    void setOverruns(uint64_t n) { overruns_ = n; }

    /** Name of the phase currently armed ("" outside a phase). */
    const char *phase() const { return phase_; }

  private:
    const char *phase_ = "";
    double start_ = 0.0;
    double budget_ = 0.0;
    bool active_ = false;
    bool fired_ = false;
    uint64_t overruns_ = 0;
    Counter *overrunMetric_; ///< guardrails.deadline_exceeded
};

} // namespace util
} // namespace geo

#endif // GEO_UTIL_WATCHDOG_HH
