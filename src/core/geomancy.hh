/**
 * @file
 * The Geomancy facade: wires monitoring agents, the Interface Daemon,
 * the ReplayDB, the DRL engine, the Action Checker and the control
 * agents into the architecture of the paper's Fig. 2.
 *
 * Geomancy only touches the target system in two ways: it observes
 * per-access performance (via the agents) and it moves files (via the
 * control agent). Decision cycles retrain the network on the freshest
 * ReplayDB window, score every (file, device) candidate, and apply the
 * checked moves; 10% of cycles take random exploration actions instead
 * (Section V-H).
 */

#ifndef GEO_CORE_GEOMANCY_HH
#define GEO_CORE_GEOMANCY_HH

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/action_checker.hh"
#include "core/control_agent.hh"
#include "core/decision_ledger.hh"
#include "core/drl_engine.hh"
#include "core/guardrails.hh"
#include "core/interface_daemon.hh"
#include "core/monitoring_agent.hh"
#include "core/movement_scheduler.hh"
#include "core/replay_db.hh"
#include "storage/system.hh"
#include "util/metrics.hh"
#include "util/random.hh"
#include "util/trace_event.hh"

namespace geo {
namespace core {

/** Top-level Geomancy configuration. */
struct GeomancyConfig
{
    DrlConfig drl;
    DaemonConfig daemon;
    CheckerConfig checker;
    /** Probability of an exploration cycle. The paper takes random
     *  decisions on 10% of *runs*; with a decision every 5 runs that
     *  is P(any of 5 runs explores) = 1 - 0.9^5 ~ 0.41 per cycle. */
    double explorationRate = 0.41;
    /** Minimum ReplayDB samples before the engine starts acting. */
    size_t minHistory = 500;
    /** Recent-sample window for the measured-throughput sanity check:
     *  a proposed move whose destination measures slower than the
     *  file's current device over this window is vetoed (0 disables).
     *  This keeps one noisy prediction from herding files onto a mount
     *  that is demonstrably slow right now — the Action Checker's
     *  "last sanity check" role (Section V-H). */
    size_t sanityWindow = 4000;
    uint64_t seed = 77;
    /** Enable the movement scheduler (per-file cooldown + gap check,
     *  the paper's future-work extension). Off by default to match
     *  the published system. */
    bool useScheduler = false;
    SchedulerConfig scheduler;
    /** Control-agent retry policy. */
    ControlAgentConfig control;
    /** Only feed accesses to *managed* files into the monitoring
     *  agents. Off by default (a monolithic optimizer observes the
     *  whole substrate, byte-identical to every prior release); the
     *  shard coordinator turns it on so co-tenant shards don't train
     *  on each other's traffic. */
    bool observeOnlyManaged = false;
    /** Telemetry quarantine, the migrate deadline and safe mode. With
     *  the default knobs (no migrate budget) this is recording-only:
     *  clean runs are byte-identical to a guardrail-free build. */
    GuardrailsConfig guardrails;
};

/** Report of one decision cycle. */
struct CycleReport
{
    bool acted = false;          ///< any move applied
    bool explored = false;       ///< this was a random exploration cycle
    bool skipped = false;        ///< not enough history / model diverged
    bool held = false;           ///< layout held (quarantine starvation)
    bool safeMode = false;       ///< cycle ran (or ended) in safe mode
    bool probe = false;          ///< this was a safe-mode probe cycle
    RetrainStats retrain;
    size_t proposedMoves = 0;
    MoveSummary moves;
};

/**
 * The Geomancy optimizer attached to one target system.
 */
class Geomancy
{
  public:
    /**
     * Attach to a target system.
     *
     * @param system target system (must outlive Geomancy).
     * @param managed_files the workload's files to optimize.
     * @param config tuning knobs.
     * @param db_path ReplayDB location (":memory:" by default).
     */
    Geomancy(storage::StorageSystem &system,
             std::vector<storage::FileId> managed_files,
             const GeomancyConfig &config = {},
             const std::string &db_path = ":memory:");

    /**
     * One decision cycle: flush agents, retrain, score candidates,
     * check actions and move files (openCycle, retrainCycle and
     * closeCycle back to back).
     */
    CycleReport runCycle();

    /**
     * Produce one layout prediction without applying it (used by the
     * "Geomancy static" baseline of experiment 2).
     */
    std::vector<MoveRequest> predictLayout();

    /** The ReplayDB (exposed for experiments and inspection). */
    ReplayDb &replayDb() { return *db_; }

    InterfaceDaemon &daemon() { return *daemon_; }
    DrlEngine &engine() { return *engine_; }
    ControlAgent &controlAgent() { return *control_; }
    Guardrails &guardrails() { return *guardrails_; }

    /** The movement scheduler, or null when disabled. */
    MovementScheduler *scheduler() { return scheduler_.get(); }

    /**
     * Attach a decision audit ledger writing NDJSON to `path`
     * (recording-only: the decision trajectory is unchanged — pinned
     * by the LedgerIdentity test). Attach before loadState() so the
     * ledger cursor is part of the loaded cut; nothing touches the
     * disk until the first cycle ends.
     */
    void attachLedger(const std::string &path);

    /** The attached ledger, or null. */
    DecisionLedger *ledger() { return ledger_.get(); }

    const std::vector<storage::FileId> &managedFiles() const
    {
        return managedFiles_;
    }

    /** Decision cycles run so far. */
    size_t cyclesRun() const { return cycles_; }

    /**
     * Serialize the whole pipeline cut at the current instant: target
     * system world state, cycle counter, RNG streams, engine weights
     * and scalers, control-agent retry queue, scheduler breakers and
     * the ReplayDB watermark. Written at the end of a decision cycle,
     * this is a consistent cut a restore resumes from byte-identically.
     */
    void saveState(util::StateWriter &w);

    /**
     * Restore a cut written by saveState(). Also rewinds the ReplayDB
     * to the checkpointed watermark, discarding rows a crashed process
     * appended after the cut. No-op when the reader fails validation.
     */
    void loadState(util::StateReader &r);

  private:
    friend class ShardCoordinator; // runs the three cycle steps

    /**
     * One cycle phase, open for the scope's lifetime: arms the
     * guardrail watchdog with the phase budget, brackets the phase
     * with flight-recorder PhaseBegin/PhaseEnd events, traces it as a
     * "cycle" span and, on close, appends the ledger's phase row.
     */
    class PhaseScope
    {
      public:
        PhaseScope(Geomancy &geo, Phase phase);
        ~PhaseScope();
        PhaseScope(const PhaseScope &) = delete;
        PhaseScope &operator=(const PhaseScope &) = delete;

      private:
        Geomancy &geo_;
        Phase phase_;
        double began_;
        util::ScopedSpan span_;
    };

    /** What a cycle carries from openCycle() to closeCycle(). */
    struct OpenCycle
    {
        CycleReport report;
        bool probe = false;
        storage::FaultInjector *injector = nullptr;
        bool retrain = false; ///< openCycle() built a training batch
        TrainingBatch batch;
        /** The Train phase: opened before the batch build, closed
         *  when the retrain ends. */
        std::optional<PhaseScope> train;
    };

    storage::StorageSystem &system_;
    std::vector<storage::FileId> managedFiles_;
    std::unordered_set<storage::FileId> managedSet_; ///< observe filter
    GeomancyConfig config_;
    Rng rng_;

    std::unique_ptr<ReplayDb> db_;
    std::unique_ptr<InterfaceDaemon> daemon_;
    std::unique_ptr<DrlEngine> engine_;
    std::unique_ptr<ActionChecker> checker_;
    std::unique_ptr<ControlAgent> control_;
    std::unique_ptr<Guardrails> guardrails_;
    std::unique_ptr<MovementScheduler> scheduler_; ///< optional
    std::unique_ptr<DecisionLedger> ledger_;       ///< optional
    std::vector<std::unique_ptr<MonitoringAgent>> agents_;
    size_t cycles_ = 0;
    OpenCycle open_;

    // Registry handles for the decision-cycle counters.
    util::Counter *cyclesMetric_;
    util::Counter *cyclesExploredMetric_;
    util::Counter *cyclesSkippedMetric_;
    util::Counter *movesProposedMetric_;
    util::Counter *sanityVetoMetric_;

    /** Flush all agents' pending batches into the ReplayDB. */
    void flushAgents();

    /**
     * A decision cycle in three steps. runCycle() runs them back to
     * back; ShardCoordinator::runRound() opens every shard, retrains
     * them all at once, then closes every shard.
     *  - openCycle: the prologue, the monitor flush, the realized
     *    join, the skip checks and the training-batch build, which
     *    opens the Train phase. Caller thread only: SQLite and the
     *    daemon never leave it.
     *  - retrainCycle: the retrain, which closes the Train phase. It
     *    touches only this pipeline's engine, guardrails and ledger,
     *    and reads the sim clock, which nothing advances meanwhile;
     *    so retrains of different pipelines may run concurrently.
     *  - closeCycle: the rest (decide(), the guardrail evidence and
     *    the ledger's cycle end). Caller thread only.
     */
    void openCycle();
    void retrainCycle();
    CycleReport closeCycle();

    /** The phases after a retrain: the AfterTrain crash point, hold,
     *  propose and migrate (early returns allowed; closeCycle feeds
     *  the evidence to the guardrails after). */
    void decide(CycleReport &report, storage::FaultInjector *injector);

    /** Propose checked moves from the current model. */
    std::vector<CheckedMove> proposeMoves();

    /** Random exploration move set. */
    std::vector<CheckedMove> explorationMoves();
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_GEOMANCY_HH
