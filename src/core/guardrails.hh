/**
 * @file
 * Guardrails: telemetry quarantine, decision deadlines and safe mode.
 *
 * Production Geomancy runs unattended against live storage, so the
 * pipeline has to survive bad inputs and its own bad cycles. This
 * subsystem adds three defensive layers:
 *
 *  1. Telemetry quarantine — every incoming performance record is
 *     validated (finite, non-negative throughput, plausible
 *     timestamps, in-range features, no duplicates) before it may
 *     enter a training batch; rejects land in a bounded quarantine
 *     ring with per-reason counters. A cycle that admits too few
 *     records while quarantining any degrades to "hold the layout".
 *  2. Migrate deadline — the migrate phase, the only one that
 *     advances the SimClock, gets a budget watched by a
 *     util::Watchdog; an overrun makes the control agent defer the
 *     rest of the batch.
 *  3. Safe mode — consecutive overruns, quarantine floods or DRL
 *     divergence trip a frozen-layout mode: migrations stop, pending
 *     retries are abandoned, and only periodic probe cycles (with
 *     exponential backoff) may demonstrate health and exit.
 *
 * Everything here is recording-only on clean runs: admit() consumes
 * no randomness, the budget defaults to disabled, and the decision
 * trajectory with guardrails enabled is byte-identical to one without
 * them unless a fault actually fires (pinned by
 * tests/core/test_guardrails.cc).
 */

#ifndef GEO_CORE_GUARDRAILS_HH
#define GEO_CORE_GUARDRAILS_HH

#include <deque>
#include <vector>

#include "core/perf_record.hh"
#include "util/metrics.hh"
#include "util/sim_clock.hh"
#include "util/state_io.hh"
#include "util/watchdog.hh"

namespace geo {
namespace core {

/** Why a telemetry record was quarantined (checked in this order). */
enum class QuarantineReason {
    NonFinite,          ///< NaN/Inf throughput
    NegativeThroughput, ///< throughput < 0
    BadDuration,        ///< close timestamp before open timestamp
    OutOfRange,         ///< throughput or byte counts beyond physics
    Future,             ///< close timestamp too far past sim-now
    Stale,              ///< close timestamp too far before sim-now
    Duplicate,          ///< exact copy of the previous pending record
};

constexpr size_t kQuarantineReasonCount = 7;

/** Stable lowercase name ("non_finite", ... — used as metric suffix). */
const char *quarantineReasonName(QuarantineReason reason);

/** The decision-cycle phases, in cycle order (the value is the index
 *  the flight recorder's PhaseBegin/PhaseEnd events carry). */
enum class Phase { Monitor, Train, Propose, Migrate };

/** Stable lowercase name ("monitor", ... — ledger rows, trace spans). */
const char *phaseName(Phase phase);

/** Throughput above this is physically implausible (bytes/s). */
constexpr double kMaxThroughput = 1e12;
/** Byte counts above this are corrupt (per access). */
constexpr uint64_t kMaxAccessBytes = 1ULL << 50;
/** Consecutive deadline-overrun cycles that trip safe mode. */
constexpr size_t kOverrunTripThreshold = 3;
/** Consecutive quarantine-flood cycles that trip safe mode. */
constexpr size_t kFloodTripThreshold = 2;
/** Consecutive diverged-retrain cycles that trip safe mode. */
constexpr size_t kDivergenceTripThreshold = 2;
/** Probe schedule: the first probe comes kProbeBackoffBase cycles after
 *  entry, each failed probe multiplies the wait by
 *  kProbeBackoffMultiplier, capped at kProbeBackoffMax. */
constexpr uint64_t kProbeBackoffBase = 2;
constexpr uint64_t kProbeBackoffMultiplier = 2;
constexpr uint64_t kProbeBackoffMax = 32;

/** One quarantined record, kept for diagnosis. */
struct QuarantinedRecord
{
    PerfRecord record;
    QuarantineReason reason = QuarantineReason::NonFinite;
    double quarantinedAt = 0.0; ///< sim time of the rejection
};

/** Guardrails configuration. */
struct GuardrailsConfig
{
    /** Master switch; disabled = admit everything, never trip. */
    bool enabled = true;

    // --- Telemetry quarantine -------------------------------------
    /** A record closing more than this before sim-now is stale. */
    double maxRecordAgeSeconds = 86400.0;
    /** Slack for records that legitimately close "in the future"
     *  (concurrent accesses observe end = start + duration without
     *  advancing the clock), plus injected clock skew beyond it. */
    double maxFutureSkewSeconds = 3600.0;
    /** Quarantined records retained for diagnosis (ring buffer). */
    size_t quarantineCapacity = 256;
    /** A cycle admitting fewer records than this while quarantining
     *  at least one holds the layout instead of acting. */
    size_t minAdmittedPerCycle = 8;

    // --- Migrate deadline (SimClock seconds; 0 = disabled) --------
    double migrateBudgetSeconds = 0.0;

    // --- Safe mode -------------------------------------------------
    /** A cycle is a flood when quarantined > admitted and at least
     *  this many records were quarantined. */
    size_t floodMinQuarantined = 16;
};

/** What one decision cycle looked like, fed to observeCycle(). */
struct CycleEvidence
{
    uint64_t cycle = 0;   ///< the cycle number just finished
    bool probe = false;   ///< this was a safe-mode probe cycle
    bool overrun = false; ///< any phase blew its deadline
    bool flood = false;   ///< quarantine flood (see floodMinQuarantined)
    bool diverged = false; ///< retraining diverged
    bool held = false;     ///< layout held for lack of admitted records
    bool trained = false;  ///< retraining ran to completion
};

/** observeCycle()'s verdict on the safe-mode state machine. */
enum class GuardrailTransition {
    None,    ///< no mode change
    Entered, ///< tripped into safe mode this cycle
    Exited,  ///< healthy probe exited safe mode
};

/**
 * The guardrail state shared by the whole pipeline. One instance per
 * Geomancy; agents validate through it, the cycle loop consults it.
 */
class Guardrails
{
  public:
    /**
     * @param config knobs (see GuardrailsConfig).
     * @param clock the shared sim clock (staleness/deadline source).
     */
    Guardrails(const GuardrailsConfig &config, const SimClock &clock);

    const GuardrailsConfig &config() const { return config_; }

    // --- Telemetry quarantine -------------------------------------

    /**
     * Validate one record; true admits it. @param prev the previous
     * record still pending in the same agent batch (null at a batch
     * boundary) for duplicate detection. Rejections are quarantined
     * and counted; no randomness is consumed either way.
     */
    bool admit(const PerfRecord &rec, const PerfRecord *prev);

    /** Reason a record would be rejected for, without side effects;
     *  admitted records return no value (false). */
    bool checkOnly(const PerfRecord &rec, const PerfRecord *prev,
                   QuarantineReason &reason) const;

    /** The quarantine ring, oldest first. */
    const std::deque<QuarantinedRecord> &quarantine() const
    {
        return quarantine_;
    }

    uint64_t admitted() const { return admitted_; }
    uint64_t quarantined() const { return quarantined_; }
    uint64_t quarantinedFor(QuarantineReason reason) const
    {
        return perReason_[static_cast<size_t>(reason)];
    }

    // --- Cycle accounting -----------------------------------------

    /** Reset the per-cycle admit/quarantine counts. */
    void beginCycle();

    size_t cycleAdmitted() const { return cycleAdmitted_; }
    size_t cycleQuarantined() const { return cycleQuarantined_; }

    /** True when this cycle must hold the layout: telemetry was
     *  quarantined and too little of it survived to trust a decision. */
    bool holdLayout() const;

    /** True when this cycle counts as a quarantine flood. */
    bool quarantineFlood() const;

    // --- Decision deadlines ---------------------------------------

    /** SimClock budget of a phase: migrateBudgetSeconds for Migrate,
     *  0 (none) for every other phase and whenever disabled. */
    double phaseBudget(Phase phase) const;

    /** Arm the watchdog for a phase; a zero budget leaves it disarmed. */
    void beginPhase(Phase phase, double now);

    /** Final poll + disarm; remembers an overrun for the cycle. */
    void endPhase(double now);

    /** True when any phase overran since beginCycle(). */
    bool cycleOverrun() const { return cycleOverrun_; }

    util::Watchdog &watchdog() { return watchdog_; }

    // --- Safe mode -------------------------------------------------

    bool safeMode() const { return safeMode_; }

    /** True when a safe-mode probe cycle is due at `cycle`. */
    bool probeDue(uint64_t cycle) const;

    /**
     * Feed the finished cycle to the trip/recovery state machine.
     * Returns the transition so the caller can freeze or thaw.
     */
    GuardrailTransition observeCycle(const CycleEvidence &evidence);

    /**
     * Externally-forced safe-mode entry — the shard coordinator's
     * global fan-out: a substrate-level fault tripping one shard's
     * guardrails trips every co-tenant coherently, instead of each
     * shard discovering the fault on its own schedule. No-op (returns
     * false) when already in safe mode or when disabled; otherwise the
     * layout freezes exactly as for an organic trip, probes and all.
     */
    bool tripSafeMode(uint64_t cycle);

    uint64_t safeModeEntries() const { return safeModeEntries_; }
    uint64_t safeModeExits() const { return safeModeExits_; }
    uint64_t backoffLevel() const { return backoffLevel_; }
    uint64_t nextProbeCycle() const { return nextProbeCycle_; }

    // --- Checkpointing ---------------------------------------------

    /**
     * Serialize the safe-mode machine, streaks and lifetime counters
     * ("grd." keys). The quarantine ring is diagnostic and not
     * persisted. A crash in safe mode resumes in safe mode with the
     * same probe schedule.
     */
    void saveState(util::StateWriter &w) const;
    void loadState(util::StateReader &r);

  private:
    void quarantineRecord(const PerfRecord &rec, QuarantineReason reason);
    uint64_t probeBackoffCycles() const;
    void enterSafeMode(uint64_t cycle);
    void exitSafeMode(uint64_t cycle);

    GuardrailsConfig config_;
    const SimClock &clock_;

    std::deque<QuarantinedRecord> quarantine_;
    uint64_t admitted_ = 0;
    uint64_t quarantined_ = 0;
    uint64_t perReason_[kQuarantineReasonCount] = {};
    size_t cycleAdmitted_ = 0;
    size_t cycleQuarantined_ = 0;
    bool cycleOverrun_ = false;

    util::Watchdog watchdog_;

    bool safeMode_ = false;
    size_t overrunStreak_ = 0;
    size_t floodStreak_ = 0;
    size_t divergenceStreak_ = 0;
    uint64_t backoffLevel_ = 0;
    uint64_t nextProbeCycle_ = 0;
    uint64_t enteredCycle_ = 0;
    uint64_t safeModeEntries_ = 0;
    uint64_t safeModeExits_ = 0;
    uint64_t probeCycles_ = 0;
    uint64_t safeModeCycles_ = 0;
    uint64_t holds_ = 0;

    // Registry handles (resolved once in the constructor).
    util::Counter *admittedMetric_;
    util::Counter *quarantinedMetric_;
    util::Counter *reasonMetrics_[kQuarantineReasonCount];
    util::Counter *holdsMetric_;
    util::Counter *entriesMetric_;
    util::Counter *exitsMetric_;
    util::Counter *probesMetric_;
    util::Counter *safeCyclesMetric_;
    util::Gauge *safeModeGauge_;
    util::Gauge *backoffGauge_;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_GUARDRAILS_HH
