/**
 * @file
 * The decision audit ledger: an append-only, per-cycle structured
 * record of *why* Geomancy did what it did.
 *
 * Every decision cycle appends line-delimited JSON rows (the
 * "geo-ledger-1" schema) covering the full causal chain of the cycle:
 * the feature vector and per-device predicted throughput of every
 * candidate move (with ranks), the Action Checker's verdict or veto
 * reason, guardrail/safe-mode state, per-phase watchdog budget
 * consumption, and the fate of every migration attempt. Once the next
 * monitoring window lands, the loop is closed: the realized per-mount
 * throughput is joined against the prediction and the signed relative
 * error is recorded — the live counterpart of the paper's Table 3
 * prediction-accuracy evaluation.
 *
 * Rules of the house:
 *
 *  - Recording-only: the ledger consumes no randomness and never
 *    feeds back into a decision; a run with a ledger attached is
 *    byte-identical to one without (pinned alongside the
 *    GuardrailsIdentity test).
 *  - Crash-exact: the serialized text is buffered in memory and
 *    flushed with util::writeFileAtomic at the end of every cycle —
 *    before the cycle's checkpoint is cut — and the checkpoint carries
 *    a byte cursor. A restore truncates the on-disk ledger back to the
 *    cursor, so a crash/rewind/resume run produces a ledger
 *    byte-identical to an uninterrupted one: no duplicated rows, no
 *    dropped rows (pinned by fig9_chaos_soak).
 *  - One file, NDJSON: first line is the schema header
 *    `{"t":"ledger","schema":"geo-ledger-1"}`; every later row carries
 *    a strictly increasing "seq" and its row type in "t".
 *
 * Row types ("t"): cycle_start, phase, realized, prediction,
 * candidate, outcome, transition, cycle. tools/geomancy_explain reads
 * this file back to answer "--why file@cycle" and friends.
 */

#ifndef GEO_CORE_DECISION_LEDGER_HH
#define GEO_CORE_DECISION_LEDGER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/control_agent.hh"
#include "core/replay_db.hh"
#include "storage/system.hh"
#include "util/metrics.hh"
#include "util/state_io.hh"

namespace geo {
namespace core {

/** One candidate device's prediction, as recorded in a candidate row. */
struct LedgerScore
{
    storage::DeviceId device = 0;
    double predicted = 0.0;
    int rank = 0; ///< 1 = best (orientation-aware)
};

/** Lifetime per-mount prediction-error accumulator (Table 3 view). */
struct MountErrorStat
{
    uint64_t samples = 0;
    double sumAbs = 0.0;    ///< sum of |predicted - realized| / realized
    double sumSigned = 0.0; ///< sum of (predicted - realized) / realized
};

/** End-of-cycle summary row payload (filled from the CycleReport). */
struct LedgerCycleSummary
{
    bool acted = false;
    bool explored = false;
    bool skipped = false;
    bool held = false;
    bool safeMode = false;
    bool probe = false;
    bool trained = false;
    bool diverged = false;
    bool cancelled = false;
    double maeFraction = 0.0; ///< validation MAE of the retrain
    size_t proposed = 0;
    size_t applied = 0;
    size_t failed = 0;
    size_t abandoned = 0;
    size_t cancelledMoves = 0;
    size_t admitted = 0;     ///< telemetry admitted this cycle
    size_t quarantined = 0;  ///< telemetry quarantined this cycle
    bool overrun = false;    ///< any phase blew its deadline
};

/**
 * Append-only NDJSON audit log of Geomancy's decision cycles.
 */
class DecisionLedger
{
  public:
    /**
     * Create a ledger writing to `path`. The schema header is buffered
     * immediately but nothing touches the disk until the first
     * endCycle() — so attaching a ledger before a checkpoint restore
     * never clobbers the file the restore will truncate. The device
     * gauges, resolved lazily, take the metric scope active here (a
     * shard's "shard<i>." prefix).
     */
    explicit DecisionLedger(std::string path);

    const std::string &path() const { return path_; }

    /** Rows emitted so far (the "seq" of the last row). */
    uint64_t rowsWritten() const { return seq_; }

    // --- Per-cycle recording hooks (no-ops outside a cycle) ---------

    /** Open cycle `cycle`; buffers the cycle_start row. */
    void beginCycle(uint64_t cycle, double sim, bool safe_mode,
                    bool probe);

    /** One finished phase: measured sim seconds vs. its budget
     *  (budget 0 = unlimited; frac is 0 then). */
    void recordPhase(const char *phase, double seconds, double budget);

    /**
     * One scored candidate file. `verdict` is "selected",
     * "random_fallback", or the veto reason ("stay_put",
     * "below_min_gain", "unreachable", "no_valid_target", "sanity").
     * `to`/`gain`/`random` only appear in the row for verdicts that
     * produced a move.
     */
    void recordCandidate(
        storage::FileId file, storage::DeviceId from,
        const std::array<double, kLiveFeatureCount> &features,
        const std::vector<LedgerScore> &scores, const std::string &verdict,
        storage::DeviceId to, double gain, bool random, bool moved);

    /** One exploration move (random cycle; no scores exist). */
    void recordExploration(storage::FileId file, storage::DeviceId from,
                           storage::DeviceId to);

    /**
     * The cycle's per-device mean predicted throughput (averaged over
     * every candidate row scored this cycle), pinned to the ReplayDB
     * accesses watermark at prediction time. Resolved against realized
     * throughput by resolveRealized() once later samples land.
     */
    void recordPrediction(
        int64_t watermark,
        const std::vector<std::pair<storage::DeviceId,
                                    std::pair<double, uint64_t>>>
            &by_device);

    /**
     * Join every pending prediction against the accesses that arrived
     * after its watermark (call right after the monitor flush): emits
     * one realized row per (prediction, device) with samples, updates
     * the lifetime per-mount error accumulators and mirrors them into
     * `ledger.dev<id>.{abs_err,signed_err,samples}` gauges so external
     * tooling can be cross-checked against the in-process numbers.
     */
    void resolveRealized(ReplayDb &db);

    /** The fate of one migration attempt this cycle. */
    void recordOutcome(const AppliedMove &move);

    /**
     * Turn a monotone, checkpointed cumulative counter into the delta
     * since the last call (keyed by `slot`: 0 = admitted watermark,
     * 1 = quarantined). The cursors are part of the checkpoint, so the
     * deltas — unlike in-process per-cycle counters — replay exactly
     * across a crash/rewind/resume.
     */
    uint64_t advanceCumulative(int slot, uint64_t cumulative);

    /** Safe-mode transition ("safe_enter" / "safe_exit"). */
    void recordTransition(const char *event);

    /**
     * Close the cycle: buffer the summary row, splice the cycle's rows
     * into the ledger text and flush it atomically to disk.
     */
    void endCycle(const LedgerCycleSummary &summary);

    // --- Error statistics (Table 3 view) ----------------------------

    const std::map<storage::DeviceId, MountErrorStat> &
    mountErrors() const
    {
        return mountErrors_;
    }

    // --- Checkpointing ----------------------------------------------

    /**
     * Serialize the cursor ("ldg." keys): row seq, ledger byte length,
     * pending (unresolved) predictions and the per-mount error
     * accumulators. Written as part of the Geomancy cut.
     */
    void saveState(util::StateWriter &w) const;

    /**
     * Restore a cursor: truncate the in-memory ledger text to the
     * checkpointed byte length (re-reading the on-disk file, which is
     * always >= the cursor because flushes precede checkpoints) and
     * rewrite the file, discarding rows a crashed process appended
     * after the cut.
     */
    void loadState(util::StateReader &r);

  private:
    /** A prediction awaiting its realized window. */
    struct PendingPrediction
    {
        uint64_t cycle = 0;
        int64_t watermark = 0; ///< accesses row id at prediction time
        std::vector<std::pair<storage::DeviceId,
                              std::pair<double, uint64_t>>>
            byDevice;
    };

    void appendRow(const std::string &body); ///< assigns seq, buffers
    /** Durable flush of content_: appends the unflushed suffix in
     *  steady state, full atomic rewrite when the disk file is not
     *  our exact flushed prefix. */
    void flush();
    util::Gauge &deviceGauge(storage::DeviceId device,
                             const char *suffix);

    std::string path_;
    std::string metricPrefix_; ///< scope captured at construction
    std::string content_;     ///< full ledger text (header included)
    std::string pendingText_; ///< rows of the open cycle
    uint64_t seq_ = 0;
    uint64_t cycle_ = 0;
    double sim_ = 0.0;
    bool inCycle_ = false;
    std::deque<PendingPrediction> pending_;
    std::map<storage::DeviceId, MountErrorStat> mountErrors_;
    uint64_t cumulative_[2] = {0, 0}; ///< advanceCumulative cursors
    /** Bytes of content_ already durable on disk; 0 forces the next
     *  flush() to be a full atomic rewrite. */
    size_t flushedBytes_ = 0;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_DECISION_LEDGER_HH
