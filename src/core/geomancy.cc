#include "core/geomancy.hh"

#include <algorithm>

#include "storage/fault_injector.hh"
#include "util/flight_recorder.hh"
#include "util/logging.hh"
#include "util/trace_event.hh"

namespace geo {
namespace core {

namespace {

/** Files moved in one exploration cycle. */
constexpr size_t kExplorationMoves = 2;

} // namespace

Geomancy::Geomancy(storage::StorageSystem &system,
                   std::vector<storage::FileId> managed_files,
                   const GeomancyConfig &config, const std::string &db_path)
    : system_(system), managedFiles_(std::move(managed_files)),
      config_(config), rng_(config.seed)
{
    if (managedFiles_.empty())
        panic("Geomancy: no managed files");
    if (config_.observeOnlyManaged)
        managedSet_.insert(managedFiles_.begin(), managedFiles_.end());
    db_ = std::make_unique<ReplayDb>(db_path);
    daemon_ = std::make_unique<InterfaceDaemon>(*db_, config_.daemon);
    engine_ = std::make_unique<DrlEngine>(config_.drl);
    checker_ = std::make_unique<ActionChecker>(system_, config_.checker);
    ControlAgentConfig control_cfg = config_.control;
    control_cfg.seed ^= config_.seed; // jitter follows the master seed
    control_ =
        std::make_unique<ControlAgent>(system_, db_.get(), control_cfg);
    guardrails_ =
        std::make_unique<Guardrails>(config_.guardrails, system_.clock());
    // The migrate deadline is cooperative: the control agent polls
    // the watchdog before every attempt.
    control_->setWatchdog(&guardrails_->watchdog());
    if (config_.useScheduler) {
        scheduler_ = std::make_unique<MovementScheduler>(
            system_, *db_, config_.scheduler);
    }

    // One monitoring agent per storage device (parallel collection in
    // the paper; serialized here but architecturally identical).
    for (storage::DeviceId id : system_.deviceIds()) {
        agents_.push_back(std::make_unique<MonitoringAgent>(
            id, [this](const std::vector<PerfRecord> &batch) {
                daemon_->receiveBatch(batch);
            }));
        agents_.back()->setGuardrails(guardrails_.get());
    }
    // Telemetry faults mangle what the agents *see*, never what the
    // system *did* — the injector rewrites the observation in flight
    // (and may echo it, modeling a double delivery).
    system_.onAccess([this](const storage::AccessObservation &obs) {
        // Sharded: ignore co-tenant traffic so this shard's model
        // trains only on files it manages (monolithic runs keep the
        // whole-substrate view).
        if (!managedSet_.empty() && managedSet_.count(obs.file) == 0)
            return;
        storage::AccessObservation seen = obs;
        bool emit_duplicate = false;
        if (storage::FaultInjector *injector = system_.faultInjector())
            injector->mutateTelemetry(seen, emit_duplicate);
        for (auto &agent : agents_)
            agent->observe(seen);
        if (emit_duplicate)
            for (auto &agent : agents_)
                agent->observe(seen);
    });

    auto &registry = util::MetricRegistry::global();
    cyclesMetric_ = &registry.counter("geomancy.cycles");
    cyclesExploredMetric_ = &registry.counter("geomancy.cycles_explored");
    cyclesSkippedMetric_ = &registry.counter("geomancy.cycles_skipped");
    movesProposedMetric_ = &registry.counter("geomancy.moves_proposed");
    sanityVetoMetric_ = &registry.counter("geomancy.sanity_vetoes");
    registry.setHelp("geomancy.cycles",
                     "Decision cycles completed by the pipeline");
    registry.setHelp("geomancy.cycles_explored",
                     "Cycles that took a random exploration move "
                     "instead of the model's choice");
    registry.setHelp("geomancy.cycles_skipped",
                     "Cycles that proposed no move (history too thin "
                     "or every candidate vetoed)");
    registry.setHelp("geomancy.moves_proposed",
                     "Candidate migrations that passed the Action "
                     "Checker and were handed to the control agent");
    registry.setHelp("geomancy.sanity_vetoes",
                     "Moves vetoed because the destination mount "
                     "measured slower than the source right now");
}

void
Geomancy::flushAgents()
{
    for (auto &agent : agents_)
        agent->flush();
}

void
Geomancy::attachLedger(const std::string &path)
{
    ledger_ = std::make_unique<DecisionLedger>(path);
}

Geomancy::PhaseScope::PhaseScope(Geomancy &geo, Phase phase)
    : geo_(geo), phase_(phase), began_(geo.system_.clock().now()),
      span_("cycle", phaseName(phase))
{
    geo_.guardrails_->beginPhase(phase_, began_);
    util::FlightRecorder::global().record(util::FlightKind::PhaseBegin,
                                          began_, geo_.cycles_,
                                          static_cast<uint64_t>(phase_));
}

Geomancy::PhaseScope::~PhaseScope()
{
    double now = geo_.system_.clock().now();
    geo_.guardrails_->endPhase(now);
    util::FlightRecorder::global().record(util::FlightKind::PhaseEnd, now,
                                          geo_.cycles_,
                                          static_cast<uint64_t>(phase_));
    if (geo_.ledger_)
        geo_.ledger_->recordPhase(phaseName(phase_), now - began_,
                                  geo_.guardrails_->phaseBudget(phase_));
}

std::vector<CheckedMove>
Geomancy::proposeMoves()
{
    // Measured recent per-device throughput for the sanity veto.
    std::map<storage::DeviceId, double> measured;
    if (config_.sanityWindow > 0) {
        for (const auto &[device, mean] :
             db_->deviceThroughput(config_.sanityWindow)) {
            measured[device] = mean;
        }
    }

    // Gather every scorable file's latest access, then score all
    // (file, candidate) pairs in a single forward pass.
    std::vector<storage::DeviceId> devices = system_.deviceIds();
    std::vector<storage::FileId> scorable;
    std::vector<PerfRecord> latests;
    scorable.reserve(managedFiles_.size());
    latests.reserve(managedFiles_.size());
    for (storage::FileId file : managedFiles_) {
        PerfRecord latest;
        if (!db_->latestAccessForFile(file, latest))
            continue; // never accessed yet, nothing to reason from
        scorable.push_back(file);
        latests.push_back(std::move(latest));
    }
    std::vector<std::vector<CandidateScore>> all_scores;
    if (!latests.empty())
        all_scores = engine_->scoreLocations(latests, devices);

    // Ledger: per-device mean of every candidate prediction this
    // cycle, pinned to the accesses watermark so the realized window
    // starts exactly where the prediction was made.
    std::map<storage::DeviceId, std::pair<double, uint64_t>> predicted;
    if (ledger_) {
        for (const auto &scores : all_scores) {
            for (const CandidateScore &s : scores) {
                auto &acc = predicted[s.device];
                acc.first += s.predictedThroughput;
                ++acc.second;
            }
        }
        for (auto &[device, acc] : predicted)
            if (acc.second > 0)
                acc.first /= static_cast<double>(acc.second);
    }

    std::vector<CheckedMove> moves;
    for (size_t i = 0; i < scorable.size(); ++i) {
        storage::FileId file = scorable[i];
        MoveVeto veto = MoveVeto::None;
        std::optional<CheckedMove> move = checker_->selectMove(
            file, all_scores[i], rng_, &veto);
        const char *verdict = moveVetoName(veto);
        bool kept = move.has_value();
        if (move && !move->random && config_.sanityWindow > 0) {
            auto from_it = measured.find(move->from);
            auto to_it = measured.find(move->to);
            // Veto moves toward a device that is measurably slower
            // right now; destinations without recent samples pass
            // (moving there is how Geomancy learns about them).
            if (from_it != measured.end() && to_it != measured.end() &&
                to_it->second < from_it->second) {
                sanityVetoMetric_->inc();
                verdict = "sanity";
                kept = false;
            }
        }
        if (ledger_) {
            // Rank 1 is the highest prediction over this file's scores.
            std::vector<LedgerScore> ranked;
            ranked.reserve(all_scores[i].size());
            for (const CandidateScore &s : all_scores[i])
                ranked.push_back({s.device, s.predictedThroughput, 1});
            for (LedgerScore &a : ranked)
                for (const LedgerScore &b : ranked)
                    if (b.predicted > a.predicted)
                        ++a.rank;
            ledger_->recordCandidate(
                file, system_.location(file), latests[i].features(),
                ranked, verdict, move ? move->to : 0,
                move ? move->predictedGain : 0.0,
                move ? move->random : false, kept);
        }
        if (kept)
            moves.push_back(*move);
    }
    if (ledger_ && !predicted.empty()) {
        std::vector<std::pair<storage::DeviceId,
                              std::pair<double, uint64_t>>>
            by_device(predicted.begin(), predicted.end());
        ledger_->recordPrediction(db_->watermark().accesses, by_device);
    }
    return checker_->capMoves(std::move(moves));
}

std::vector<CheckedMove>
Geomancy::explorationMoves()
{
    // Pick a few random managed files and move each somewhere random;
    // this keeps the availability map fresh and teaches the model the
    // movement/performance relation (Section V-H).
    std::vector<storage::FileId> shuffled = managedFiles_;
    rng_.shuffle(shuffled);
    std::vector<CheckedMove> moves;
    for (storage::FileId file : shuffled) {
        if (moves.size() >= kExplorationMoves)
            break;
        std::optional<CheckedMove> move = checker_->randomMove(file, rng_);
        if (move) {
            if (ledger_)
                ledger_->recordExploration(move->file, move->from,
                                           move->to);
            moves.push_back(*move);
        }
    }
    return moves;
}

CycleReport
Geomancy::runCycle()
{
    GEO_SPAN("cycle", "cycle");
    openCycle();
    retrainCycle();
    return closeCycle();
}

void
Geomancy::openCycle()
{
    GEO_TRACE_INSTANT("cycle", "decision_cycle", util::TimeDomain::Sim,
                      system_.clock().now());
    open_.report = CycleReport{};
    open_.retrain = false;
    ++cycles_;
    cyclesMetric_->inc();
    open_.injector = system_.faultInjector();
    if (open_.injector)
        open_.injector->notifyCycle(cycles_);

    // The quarantine window for this cycle covers everything observed
    // since the previous cycle ended; the reset happens in closeCycle,
    // after the evidence is captured.
    open_.probe = guardrails_->probeDue(cycles_);
    open_.report.probe = open_.probe;
    open_.report.safeMode = guardrails_->safeMode();
    if (ledger_) {
        ledger_->beginCycle(cycles_, system_.clock().now(),
                            guardrails_->safeMode(), open_.probe);
    }
    {
        PhaseScope scope(*this, Phase::Monitor);
        flushAgents();
    }
    // The freshly flushed window closes the loop on any outstanding
    // prediction: join realized per-mount throughput against it.
    if (ledger_)
        ledger_->resolveRealized(*db_);

    // Safe mode: the layout is frozen. Telemetry keeps flowing (the
    // flush above) and probe cycles additionally retrain to test
    // health, but nothing proposes or migrates until a healthy probe
    // exits the mode. Too little history skips the cycle too.
    if ((guardrails_->safeMode() && !open_.probe) ||
        db_->accessCount() < static_cast<int64_t>(config_.minHistory)) {
        open_.report.skipped = true;
        cyclesSkippedMetric_->inc();
        return;
    }

    open_.train.emplace(*this, Phase::Train);
    open_.batch = daemon_->buildTrainingBatch(system_.deviceIds());
    open_.retrain = true;
}

void
Geomancy::retrainCycle()
{
    if (!open_.retrain)
        return;
    open_.report.retrain = engine_->retrain(open_.batch);
    open_.train.reset();
}

CycleReport
Geomancy::closeCycle()
{
    CycleReport &report = open_.report;
    if (open_.retrain) {
        open_.batch = TrainingBatch{}; // freed on the caller's thread
        decide(report, open_.injector);
    }

    CycleEvidence evidence;
    evidence.cycle = cycles_;
    evidence.probe = open_.probe;
    evidence.overrun = guardrails_->cycleOverrun();
    evidence.flood = guardrails_->quarantineFlood();
    evidence.diverged = report.retrain.diverged;
    evidence.trained = report.retrain.trained && !report.retrain.diverged;
    evidence.held = report.held;
    GuardrailTransition transition = guardrails_->observeCycle(evidence);
    if (transition == GuardrailTransition::Entered) {
        // Freeze the layout at last-known-good: drain the retry queue
        // so no deferred migration fires while frozen.
        control_->abandonPending();
    }
    report.safeMode = guardrails_->safeMode();
    if (ledger_) {
        if (transition == GuardrailTransition::Entered)
            ledger_->recordTransition("safe_enter");
        else if (transition == GuardrailTransition::Exited)
            ledger_->recordTransition("safe_exit");
        LedgerCycleSummary summary;
        summary.acted = report.acted;
        summary.explored = report.explored;
        summary.skipped = report.skipped;
        summary.held = report.held;
        summary.safeMode = report.safeMode;
        summary.probe = report.probe;
        summary.trained = report.retrain.trained;
        summary.diverged = report.retrain.diverged;
        summary.cancelled = report.retrain.cancelled;
        summary.maeFraction = report.retrain.meanAbsRelError;
        summary.proposed = report.proposedMoves;
        summary.applied = report.moves.applied;
        summary.failed = report.moves.failed;
        summary.abandoned = report.moves.abandoned;
        summary.cancelledMoves = report.moves.cancelled;
        // Deltas of checkpointed cumulative counters, not the
        // in-process per-cycle ones: those recount only the re-ingested
        // tail after a crash/rewind/resume and would break the ledger's
        // byte-for-byte replay guarantee.
        summary.admitted = ledger_->advanceCumulative(
            0, static_cast<uint64_t>(db_->watermark().accesses));
        summary.quarantined =
            ledger_->advanceCumulative(1, guardrails_->quarantined());
        summary.overrun = guardrails_->cycleOverrun();
        ledger_->endCycle(summary);
    }
    guardrails_->beginCycle();
    return report;
}

void
Geomancy::decide(CycleReport &report, storage::FaultInjector *injector)
{
    if (injector)
        injector->maybeCrash(storage::CrashPoint::AfterTrain);
    if (!report.retrain.trained || report.retrain.diverged) {
        report.skipped = true;
        cyclesSkippedMetric_->inc();
        return;
    }

    // A probe cycle (health is judged from the evidence), or a
    // co-tenant the coordinator tripped since this cycle opened.
    if (guardrails_->safeMode())
        return;

    // Quarantine starvation: some telemetry was rejected and too
    // little survived to trust a decision — hold the current layout.
    if (guardrails_->holdLayout()) {
        report.held = true;
        report.skipped = true;
        cyclesSkippedMetric_->inc();
        util::FlightRecorder::global().record(
            util::FlightKind::LayoutHold, system_.clock().now(),
            cycles_, guardrails_->cycleAdmitted(),
            guardrails_->cycleQuarantined());
        warn("geomancy: cycle %zu holding layout (%zu admitted, %zu "
             "quarantined)",
             cycles_, guardrails_->cycleAdmitted(),
             guardrails_->cycleQuarantined());
        return;
    }

    std::vector<CheckedMove> moves;
    {
        PhaseScope scope(*this, Phase::Propose);
        if (rng_.chance(config_.explorationRate)) {
            report.explored = true;
            cyclesExploredMetric_->inc();
            moves = explorationMoves();
        } else {
            moves = proposeMoves();
        }
        report.proposedMoves = moves.size();
        movesProposedMetric_->add(moves.size());
        if (scheduler_) {
            moves = scheduler_->admitAll(std::move(moves),
                                         system_.clock().now());
        }
    }
    if (injector)
        injector->maybeCrash(storage::CrashPoint::AfterPropose);
    if (moves.empty() && control_->pendingRetries() == 0)
        return;

    {
        PhaseScope scope(*this, Phase::Migrate);
        std::vector<MoveRequest> requests;
        requests.reserve(moves.size());
        for (const CheckedMove &move : moves)
            requests.push_back({move.file, move.to});
        report.moves = control_->apply(requests);
    }
    report.acted = report.moves.applied > 0;
    if (ledger_) {
        for (const AppliedMove &fate : report.moves.outcomes)
            ledger_->recordOutcome(fate);
    }

    // Let the scheduler's circuit breaker learn from move fates:
    // successes close a target's breaker, fault-class failures count
    // toward opening it.
    if (scheduler_) {
        double move_now = system_.clock().now();
        for (const AppliedMove &fate : report.moves.outcomes) {
            if (fate.outcome == AttemptOutcome::Applied)
                scheduler_->recordMoveOutcome(fate.to, true, move_now);
            else if (fate.outcome != AttemptOutcome::Skipped &&
                     storage::moveFailRetryable(fate.reason))
                scheduler_->recordMoveOutcome(fate.to, false, move_now);
        }
    }
}

void
Geomancy::saveState(util::StateWriter &w)
{
    // Drain the agents' partial batches into the ReplayDB so the
    // watermark below covers every observation made before the cut;
    // otherwise sub-batch observations would silently vanish in a
    // crash. Neutral for determinism as long as the uninterrupted
    // reference run checkpoints at the same cadence.
    flushAgents();
    // World first: a restore must re-establish the clock and layout
    // before the pipeline components interpret their own cursors.
    system_.saveState(w);
    w.u64("geo.cycles", cycles_);
    w.rng("geo.rng", rng_);
    daemon_->saveState(w);
    engine_->saveState(w);
    control_->saveState(w);
    w.boolean("geo.has_scheduler", scheduler_ != nullptr);
    if (scheduler_)
        scheduler_->saveState(w);
    // Ledger cursor: a restore truncates the audit trail back to this
    // cut so replayed cycles re-append byte-identical rows.
    w.boolean("geo.has_ledger", ledger_ != nullptr);
    if (ledger_)
        ledger_->saveState(w);
    // Guardrails: a crash in safe mode must resume in safe mode with
    // the same probe schedule.
    guardrails_->saveState(w);
    // ReplayDB watermark: rows past these ids were appended after the
    // cut (by the crashed process) and are rewound on restore so the
    // replayed cycles insert byte-identical history.
    ReplayDbWatermark wm = db_->watermark();
    w.u64("geo.db_accesses", static_cast<uint64_t>(wm.accesses));
    w.u64("geo.db_movements", static_cast<uint64_t>(wm.movements));
    w.u64("geo.db_attempts", static_cast<uint64_t>(wm.moveAttempts));
    w.u64("geo.db_faults", static_cast<uint64_t>(wm.faultEvents));
}

void
Geomancy::loadState(util::StateReader &r)
{
    system_.loadState(r);
    uint64_t cycles = r.u64("geo.cycles");
    Rng::State rng = r.rng("geo.rng");
    daemon_->loadState(r);
    engine_->loadState(r);
    control_->loadState(r);
    bool hasScheduler = r.boolean("geo.has_scheduler");
    if (r.ok() && hasScheduler != (scheduler_ != nullptr)) {
        r.fail("geomancy: scheduler config changed since the checkpoint");
        return;
    }
    if (scheduler_ && r.ok())
        scheduler_->loadState(r);
    bool hasLedger = r.boolean("geo.has_ledger");
    if (r.ok() && hasLedger != (ledger_ != nullptr)) {
        r.fail("geomancy: ledger config changed since the checkpoint");
        return;
    }
    if (ledger_ && r.ok())
        ledger_->loadState(r);
    if (r.ok())
        guardrails_->loadState(r);
    ReplayDbWatermark wm;
    wm.accesses = static_cast<int64_t>(r.u64("geo.db_accesses"));
    wm.movements = static_cast<int64_t>(r.u64("geo.db_movements"));
    wm.moveAttempts = static_cast<int64_t>(r.u64("geo.db_attempts"));
    wm.faultEvents = static_cast<int64_t>(r.u64("geo.db_faults"));
    if (!r.ok())
        return;
    cycles_ = cycles;
    rng_.setState(rng);
    db_->rewindTo(wm);
}

std::vector<MoveRequest>
Geomancy::predictLayout()
{
    flushAgents();
    TrainingBatch batch =
        daemon_->buildTrainingBatch(system_.deviceIds());
    RetrainStats stats = engine_->retrain(batch);
    if (!stats.trained || stats.diverged) {
        warn("Geomancy::predictLayout: model not usable "
             "(trained=%d diverged=%d)", stats.trained, stats.diverged);
        return {};
    }
    std::vector<MoveRequest> requests;
    for (const CheckedMove &move : proposeMoves())
        requests.push_back({move.file, move.to});
    return requests;
}

} // namespace core
} // namespace geo
