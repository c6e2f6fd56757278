/**
 * @file
 * Control agent (paper Section V-A): executes layout changes on the
 * target system in the background and reports the movements back to
 * the ReplayDB so every action is indexed by its timestamp.
 *
 * Migrations are fallible: a device can go offline or throw transient
 * I/O errors mid-transfer. The agent therefore logs every *attempt*
 * (not just every success), retries fault-aborted moves with bounded
 * exponential backoff, and abandons a move once its retry budget or
 * per-move deadline runs out. Because each attempt is persisted in
 * the ReplayDB, a restarted agent can rebuild its pending-retry queue
 * from the log (crash-safe replay).
 */

#ifndef GEO_CORE_CONTROL_AGENT_HH
#define GEO_CORE_CONTROL_AGENT_HH

#include <deque>
#include <vector>

#include "core/replay_db.hh"
#include "storage/system.hh"
#include "util/metrics.hh"
#include "util/random.hh"
#include "util/state_io.hh"
#include "util/watchdog.hh"

namespace geo {
namespace core {

/** One requested file movement. */
struct MoveRequest
{
    storage::FileId file = 0;
    storage::DeviceId target = 0;
};

/** Retry policy for fault-aborted migrations. */
struct RetryConfig
{
    /** Total tries per move (first attempt included). */
    size_t maxAttempts = 4;
    /** Backoff before retry n is base * multiplier^(n-1) seconds,
     *  +/- jitterFraction of itself. */
    double backoffBase = 30.0;
    double backoffMultiplier = 2.0;
    double jitterFraction = 0.25;
    /** A move still failing this long after its first attempt is
     *  abandoned even if attempts remain. */
    double moveDeadlineSeconds = 1800.0;
};

/** Control-agent configuration. */
struct ControlAgentConfig
{
    RetryConfig retry;
    /** Seed for backoff jitter. */
    uint64_t seed = 17;
};

/**
 * Cross-shard admission control. When several ControlAgents share one
 * substrate (the shard coordinator), each consults this hook before
 * every attempt so per-device concurrency/bytes budgets hold globally.
 * Returning false defers the move: a fresh request is dropped (counted
 * as deferred), a due retry stays queued for the next cycle. The hook
 * must be deterministic — admission decisions are part of the replayed
 * decision trajectory.
 */
class MoveAdmission
{
  public:
    virtual ~MoveAdmission() = default;
    /** May `bytes` move from `from` to `to` right now? */
    virtual bool admitMove(storage::DeviceId from, storage::DeviceId to,
                           uint64_t bytes) = 0;
};

/** The fate of one request within an apply() batch. */
struct AppliedMove
{
    storage::FileId file = 0;
    storage::DeviceId from = 0;
    storage::DeviceId to = 0;
    AttemptOutcome outcome = AttemptOutcome::Applied;
    storage::MoveFail reason = storage::MoveFail::None;
    size_t attempt = 1; ///< 1-based attempt number for this move
};

/** Summary of an applied layout change. */
struct MoveSummary
{
    size_t requested = 0;
    size_t applied = 0;   ///< actually moved (src != dst, valid)
    size_t skipped = 0;   ///< invalid requests dropped (with reason)
    size_t failed = 0;    ///< fault-aborted attempts this batch
    size_t abandoned = 0; ///< moves given up (budget/deadline)
    size_t requeued = 0;  ///< fault-aborted moves queued for retry
    size_t cancelled = 0; ///< not attempted: the watchdog fired
    size_t deferred = 0;  ///< denied by cross-shard admission control
    uint64_t bytesMoved = 0;
    double transferSeconds = 0.0;
    /** Per-request fates, in execution order (retries included). */
    std::vector<AppliedMove> outcomes;
};

/**
 * Applies move requests to the target system.
 */
class ControlAgent
{
  public:
    /**
     * @param system the target system.
     * @param db attempt/movement log (may be null to skip logging).
     */
    ControlAgent(storage::StorageSystem &system, ReplayDb *db,
                 ControlAgentConfig config = {});

    /**
     * Apply a batch of moves plus any pending retries that are due.
     * Invalid moves are skipped with a warn; fault-aborted moves are
     * re-queued with backoff or abandoned per the retry policy. A new
     * request for a file supersedes its pending retry.
     */
    MoveSummary apply(const std::vector<MoveRequest> &moves);

    /** Moves currently awaiting a retry. */
    size_t pendingRetries() const { return pending_.size(); }

    /**
     * Cooperative deadline enforcement: when set, the watchdog is
     * polled before every attempt inside apply(); once it fires the
     * remaining moves of the batch are counted as cancelled and left
     * for the next cycle. Null disables (the default).
     */
    void setWatchdog(util::Watchdog *watchdog) { watchdog_ = watchdog; }

    /**
     * Cross-shard admission hook, consulted before every attempt when
     * set. Denied fresh moves are dropped (summary.deferred); denied
     * due retries stay queued. Null admits everything (the default).
     */
    void setAdmission(MoveAdmission *admission) { admission_ = admission; }

    /**
     * Abandon every pending retry (safe-mode entry): each queued move
     * is logged as Abandoned so the attempt log stays an exact record
     * of the move's fate. @return moves abandoned.
     */
    size_t abandonPending();

    /**
     * Rebuild the pending-retry queue from the ReplayDB attempt log:
     * every move whose most recent attempt ended in Failed is re-queued
     * (due immediately, attempt counter restored). Used after a crash
     * or restart. @return moves restored.
     */
    size_t restorePending();

    /** Lifetime totals. */
    uint64_t totalMoves() const { return totalMoves_; }
    uint64_t totalBytesMoved() const { return totalBytes_; }
    uint64_t totalAbandoned() const { return totalAbandoned_; }

    /**
     * Serialize the retry queue, jitter RNG and lifetime totals. A
     * restore from this state is exact; restorePending() then becomes
     * a consistency check, not the source of truth.
     */
    void saveState(util::StateWriter &w) const;
    void loadState(util::StateReader &r);

  private:
    /** A fault-aborted move awaiting its next try. */
    struct Pending
    {
        MoveRequest req;
        size_t attempts = 0;      ///< tries already made
        double firstAttempt = 0.0;
        double nextAttempt = 0.0; ///< due time (sim seconds)
    };

    storage::StorageSystem &system_;
    ReplayDb *db_;
    ControlAgentConfig config_;
    util::Watchdog *watchdog_ = nullptr;
    MoveAdmission *admission_ = nullptr;
    Rng rng_;
    std::deque<Pending> pending_;
    uint64_t totalMoves_ = 0;
    uint64_t totalBytes_ = 0;
    uint64_t totalAbandoned_ = 0;

    // Registry handles for migration accounting.
    util::Counter *requestedMetric_;
    util::Counter *appliedMetric_;
    util::Counter *failedMetric_;
    util::Counter *skippedMetric_;
    util::Counter *requeuedMetric_;
    util::Counter *abandonedMetric_;
    util::Counter *cancelledMetric_;
    util::Counter *deferredMetric_;
    util::Counter *supersededMetric_;
    util::Counter *retriesMetric_;
    util::Counter *bytesMetric_;
    util::Histogram *backoffMetric_;
    util::Histogram *transferSecondsMetric_;

    /** Run one attempt of one move; updates summary, queue and log. */
    void attemptMove(const MoveRequest &req, size_t prior_attempts,
                     double first_attempt, MoveSummary &summary);
    /** True once the migrate-phase watchdog has fired. */
    bool overBudget();
    double backoffDelay(size_t attempts);
    void logAttempt(const AppliedMove &fate, uint64_t bytes_copied);
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_CONTROL_AGENT_HH
