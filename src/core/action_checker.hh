/**
 * @file
 * The Action Checker (paper Section V-H): the last sanity check before
 * file movements reach the target system.
 *
 * It removes storage devices that are invalid at decision time
 * (missing, read-only, or too full for the file), selects the
 * highest-predicted-throughput location among the survivors (including
 * "stay put"), and falls back to a random movement when every
 * candidate is invalid so Geomancy keeps exploring the system.
 */

#ifndef GEO_CORE_ACTION_CHECKER_HH
#define GEO_CORE_ACTION_CHECKER_HH

#include <optional>
#include <vector>

#include "core/control_agent.hh"
#include "core/drl_engine.hh"
#include "storage/system.hh"
#include "util/metrics.hh"
#include "util/random.hh"

namespace geo {
namespace core {

/** Devices degraded below this health factor are invalid move targets
 *  (offline devices always are), for Geomancy and the baselines alike. */
constexpr double kMinHealthFactor = 0.5;

/** Action Checker configuration. */
struct CheckerConfig
{
    /** Minimum relative predicted gain over staying put before a move
     *  is worth its transfer cost. */
    double minRelativeGain = 0.02;
    /** Upper bound on files moved per decision cycle; the paper
     *  observes 1-14 files per movement. */
    size_t maxMovesPerCycle = 14;
    /** Upper bound on files moved to the *same* destination per
     *  cycle. Per-file argmax scoring would otherwise herd every file
     *  onto the momentarily-fastest mount in one step; the paper
     *  instead lets the system "rearrange itself into this
     *  configuration over time", which this cap enforces (its future
     *  work proposes a full movement scheduler). */
    size_t maxMovesPerTarget = 3;
};

/** Why selectMove() declined (or degraded) a candidate file. */
enum class MoveVeto {
    None,           ///< a move was selected
    Unreachable,    ///< current device offline: nothing to execute
    StayPut,        ///< the current location predicted best
    BelowMinGain,   ///< predicted gain under minRelativeGain
    NoValidTarget,  ///< random fallback found no valid device either
    RandomFallback, ///< all candidates invalid: random move taken
};

/** Stable lowercase name ("stay_put", ... — the ledger verdict). */
const char *moveVetoName(MoveVeto veto);

/** A checked, ready-to-apply movement decision. */
struct CheckedMove
{
    storage::FileId file = 0;
    storage::DeviceId from = 0;
    storage::DeviceId to = 0;
    double predictedThroughput = 0.0;
    double predictedGain = 0.0; ///< relative to staying put
    bool random = false;        ///< fallback exploration move
};

/**
 * Validates candidate locations and selects movements.
 */
class ActionChecker
{
  public:
    ActionChecker(storage::StorageSystem &system,
                  const CheckerConfig &config = {});

    /**
     * Devices from `candidates` that could hold `file` right now.
     * The file's current device is always considered valid.
     */
    std::vector<storage::DeviceId> validDevices(
        storage::FileId file,
        const std::vector<storage::DeviceId> &candidates) const;

    /**
     * Pick the best move for one file from scored candidates.
     *
     * @param file the file under consideration.
     * @param scores engine predictions per candidate device (must
     *        include the current location).
     * @param rng used for the all-invalid random fallback.
     * @param veto when non-null, receives why the file was declined
     *        (or RandomFallback/None when a move came back) — the
     *        decision ledger's audit trail.
     * @return a move if one beats staying put by minRelativeGain, the
     *         random fallback when nothing is valid, or nullopt.
     */
    std::optional<CheckedMove> selectMove(
        storage::FileId file, const std::vector<CandidateScore> &scores,
        Rng &rng, MoveVeto *veto = nullptr) const;

    /**
     * Order proposed moves by predicted gain and truncate to
     * maxMovesPerCycle.
     */
    std::vector<CheckedMove> capMoves(std::vector<CheckedMove> moves) const;

    /** A purely random (exploration) move for `file`, if possible. */
    std::optional<CheckedMove> randomMove(storage::FileId file,
                                          Rng &rng) const;

    const CheckerConfig &config() const { return config_; }

  private:
    storage::StorageSystem &system_;
    CheckerConfig config_;

    // Registry handles for candidate-veto accounting (the pointees are
    // thread-safe to mutate from the const checker methods).
    util::Counter *vetoReadonlyMetric_;
    util::Counter *vetoCapacityMetric_;
    util::Counter *vetoUnhealthyMetric_;
    util::Counter *belowMinGainMetric_;
    util::Counter *randomFallbackMetric_;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_ACTION_CHECKER_HH
