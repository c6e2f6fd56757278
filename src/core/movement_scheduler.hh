/**
 * @file
 * The data-movement scheduler (paper Sections V-F and X, future work).
 *
 * The paper defers "a data movement scheduler ... that determines a
 * cooldown between file movement" to future work. This implementation
 * combines three admission rules for each checked move:
 *
 *  1. a per-file cooldown — a file that was just migrated is left
 *     alone for a while, bounding migration churn;
 *  2. a gap check — the expected transfer must fit inside the file's
 *     predicted idle gap (GapPredictor), so migrations do not collide
 *     with the workload's own accesses;
 *  3. a per-device circuit breaker — a target device whose recent
 *     moves keep failing is taken out of rotation until a single
 *     probe move succeeds, so the pipeline stops pouring retries
 *     onto a dying mount.
 */

#ifndef GEO_CORE_MOVEMENT_SCHEDULER_HH
#define GEO_CORE_MOVEMENT_SCHEDULER_HH

#include <deque>
#include <map>

#include "core/action_checker.hh"
#include "core/gap_predictor.hh"
#include "storage/system.hh"
#include "util/metrics.hh"
#include "util/state_io.hh"

namespace geo {
namespace core {

/** Failures within the breaker window that trip it open. */
constexpr size_t kBreakerFailureThreshold = 3;
/** Sliding window over which breaker failures are counted, seconds. */
constexpr double kBreakerWindowSeconds = 600.0;
/** A breaker stays open this long before a half-open probe move. */
constexpr double kBreakerCooldownSeconds = 300.0;

/** Circuit-breaker state for one target device. */
enum class BreakerState {
    Closed,   ///< moves admitted normally
    Open,     ///< all moves onto the device rejected
    HalfOpen, ///< cooldown elapsed: exactly one probe move admitted
};

/** Scheduler configuration. */
struct SchedulerConfig
{
    /** Seconds a file must rest between migrations. */
    double fileCooldownSeconds = 60.0;
    /** Enforce the gap check (the cooldown always applies). */
    bool checkGaps = true;
};

/**
 * Admission control for checked moves.
 */
class MovementScheduler
{
  public:
    MovementScheduler(storage::StorageSystem &system, const ReplayDb &db,
                      const SchedulerConfig &config = {});

    /**
     * Whether `move` may execute at time `now`; admitted moves are
     * recorded so the cooldown starts immediately.
     */
    bool admit(const CheckedMove &move, double now);

    /** Filter a move list, keeping only admissible moves. */
    std::vector<CheckedMove> admitAll(std::vector<CheckedMove> moves,
                                      double now);

    /** Expected transfer duration of a move at time `now`. */
    double expectedTransferSeconds(const CheckedMove &move,
                                   double now) const;

    /**
     * Feed the breaker with the fate of an executed move onto
     * `target`. A fault-class failure counts toward tripping the
     * breaker; a success resets it (and closes a half-open probe).
     */
    void recordMoveOutcome(storage::DeviceId target, bool success,
                           double now);

    /** Breaker state of a target device at time `now`. */
    BreakerState breakerState(storage::DeviceId target, double now);

    /** Moves rejected so far, by reason. */
    uint64_t rejectedByCooldown() const { return rejectedCooldown_; }
    uint64_t rejectedByGap() const { return rejectedGap_; }
    uint64_t rejectedByBreaker() const { return rejectedBreaker_; }

    /** Serialize cooldown map, breaker states and rejection totals. */
    void saveState(util::StateWriter &w) const;
    void loadState(util::StateReader &r);

  private:
    /** Breaker bookkeeping for one target device. */
    struct Breaker
    {
        std::deque<double> failures; ///< recent failure timestamps
        BreakerState state = BreakerState::Closed;
        double openedAt = 0.0;
        bool probeInFlight = false;
    };

    storage::StorageSystem &system_;
    GapPredictor gaps_;
    SchedulerConfig config_;
    std::map<storage::FileId, double> lastMove_;
    std::map<storage::DeviceId, Breaker> breakers_;
    uint64_t rejectedCooldown_ = 0;
    uint64_t rejectedGap_ = 0;
    uint64_t rejectedBreaker_ = 0;

    // Registry mirrors of the per-instance counters, plus breaker
    // state transitions (trips/probes/closes) for the fig7 summary.
    util::Counter *admittedMetric_;
    util::Counter *rejectedCooldownMetric_;
    util::Counter *rejectedGapMetric_;
    util::Counter *rejectedBreakerMetric_;
    util::Counter *breakerTripsMetric_;
    util::Counter *breakerProbesMetric_;
    util::Counter *breakerClosesMetric_;

    /** Admission decision of the breaker for a move onto `target`. */
    bool breakerAdmits(storage::DeviceId target, double now);
    /** Drop failure timestamps older than the window. */
    void pruneFailures(Breaker &breaker, double now);
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_MOVEMENT_SCHEDULER_HH
