#include "core/control_agent.hh"

#include <algorithm>

#include "util/flight_recorder.hh"
#include "util/logging.hh"
#include "util/trace_event.hh"

namespace geo {
namespace core {

namespace {

/** Chunk size of the agent's incremental transfers. */
constexpr uint64_t kMoveChunkBytes = 64ULL << 20;

} // namespace

ControlAgent::ControlAgent(storage::StorageSystem &system, ReplayDb *db,
                           ControlAgentConfig config)
    : system_(system), db_(db), config_(config), rng_(config.seed)
{
    auto &registry = util::MetricRegistry::global();
    requestedMetric_ = &registry.counter("control.moves_requested");
    appliedMetric_ = &registry.counter("control.moves_applied");
    failedMetric_ = &registry.counter("control.moves_failed");
    skippedMetric_ = &registry.counter("control.moves_skipped");
    requeuedMetric_ = &registry.counter("control.moves_requeued");
    abandonedMetric_ = &registry.counter("control.moves_abandoned");
    cancelledMetric_ = &registry.counter("control.moves_cancelled");
    deferredMetric_ = &registry.counter("control.moves_deferred");
    supersededMetric_ = &registry.counter("control.moves_superseded");
    retriesMetric_ = &registry.counter("control.retries");
    bytesMetric_ = &registry.counter("control.bytes_moved");
    backoffMetric_ = &registry.histogram("control.backoff_s");
    transferSecondsMetric_ = &registry.histogram("control.transfer_s");
}

double
ControlAgent::backoffDelay(size_t attempts)
{
    // attempts = tries already made, so the first retry (attempts == 1)
    // waits backoffBase seconds.
    double delay = config_.retry.backoffBase;
    for (size_t i = 1; i < attempts; ++i)
        delay *= config_.retry.backoffMultiplier;
    double jitter = config_.retry.jitterFraction;
    if (jitter > 0.0)
        delay *= 1.0 + rng_.uniform(-jitter, jitter);
    return std::max(delay, 0.0);
}

void
ControlAgent::logAttempt(const AppliedMove &fate, uint64_t bytes_copied)
{
    if (!db_)
        return;
    MoveAttemptRecord rec;
    rec.timestamp = system_.clock().now();
    rec.file = fate.file;
    rec.fromDevice = fate.from;
    rec.toDevice = fate.to;
    rec.attempt = static_cast<int>(fate.attempt);
    rec.outcome = fate.outcome;
    rec.reason = fate.reason;
    rec.bytesCopied = bytes_copied;
    db_->insertMoveAttempt(rec);
}

void
ControlAgent::attemptMove(const MoveRequest &req, size_t prior_attempts,
                          double first_attempt, MoveSummary &summary)
{
    if (prior_attempts > 0)
        retriesMetric_->inc();
    storage::DeviceId from = system_.location(req.file);
    storage::MoveResult result =
        system_.moveFileChunked(req.file, req.target, kMoveChunkBytes);

    AppliedMove fate;
    fate.file = req.file;
    fate.from = from;
    fate.to = req.target;
    fate.reason = result.reason;
    fate.attempt = prior_attempts + 1;

    if (result.moved) {
        fate.outcome = AttemptOutcome::Applied;
        ++summary.applied;
        summary.bytesMoved += result.bytes;
        summary.transferSeconds += result.seconds;
        ++totalMoves_;
        totalBytes_ += result.bytes;
        appliedMetric_->inc();
        bytesMetric_->add(result.bytes);
        transferSecondsMetric_->record(result.seconds);
        // The transfer just finished at sim-now; span covers its
        // modeled duration on the sim timeline.
        GEO_SIM_SPAN("migrate", "move",
                     system_.clock().now() - result.seconds,
                     result.seconds);
        logAttempt(fate, result.bytes);
        if (db_) {
            MovementRecord rec;
            rec.timestamp = system_.clock().now();
            rec.file = req.file;
            rec.fromDevice = result.from;
            rec.toDevice = result.to;
            rec.bytes = result.bytes;
            rec.seconds = result.seconds;
            db_->insertMovement(rec);
        }
    } else if (result.failed) {
        // Fault-class abort: retry with backoff unless the budget or
        // the per-move deadline ran out.
        ++summary.failed;
        failedMetric_->inc();
        double now = system_.clock().now();
        size_t attempts = prior_attempts + 1;
        bool budget_left = attempts < config_.retry.maxAttempts;
        bool within_deadline =
            now - first_attempt < config_.retry.moveDeadlineSeconds;
        if (budget_left && within_deadline) {
            fate.outcome = AttemptOutcome::Failed;
            Pending pend;
            pend.req = req;
            pend.attempts = attempts;
            pend.firstAttempt = first_attempt;
            double delay = backoffDelay(attempts);
            backoffMetric_->record(delay);
            pend.nextAttempt = now + delay;
            pending_.push_back(pend);
            ++summary.requeued;
            requeuedMetric_->inc();
            warn("control: move file %llu -> dev %u aborted (%s, "
                 "attempt %zu), retrying at t=%.1f",
                 (unsigned long long)req.file, (unsigned)req.target,
                 storage::moveFailName(result.reason), attempts,
                 pend.nextAttempt);
        } else {
            fate.outcome = AttemptOutcome::Abandoned;
            ++summary.abandoned;
            ++totalAbandoned_;
            abandonedMetric_->inc();
            warn("control: move file %llu -> dev %u abandoned after "
                 "%zu attempts (%s)",
                 (unsigned long long)req.file, (unsigned)req.target,
                 attempts, storage::moveFailName(result.reason));
        }
        logAttempt(fate, result.bytesCopied);
    } else {
        // Validity-class rejection: the request itself is bad (wrong
        // target, no capacity, no-op); dropping it is the right move.
        fate.outcome = AttemptOutcome::Skipped;
        ++summary.skipped;
        skippedMetric_->inc();
        if (result.reason != storage::MoveFail::SameDevice)
            warn("control: skipped move file %llu -> dev %u (%s)",
                 (unsigned long long)req.file, (unsigned)req.target,
                 storage::moveFailName(result.reason));
        logAttempt(fate, 0);
    }
    summary.outcomes.push_back(fate);
}

MoveSummary
ControlAgent::apply(const std::vector<MoveRequest> &moves)
{
    MoveSummary summary;
    summary.requested = moves.size();
    requestedMetric_->add(moves.size());

    // A fresh request for a file supersedes its pending retry: the
    // model has newer information about where the file should live.
    // Log the supersede so the attempt log's last entry per
    // (file, target) no longer says Failed — restorePending() would
    // otherwise resurrect a retry nobody owes anymore.
    if (!pending_.empty() && !moves.empty()) {
        auto superseded = [&moves](const Pending &p) {
            return std::any_of(moves.begin(), moves.end(),
                               [&p](const MoveRequest &m) {
                                   return m.file == p.req.file;
                               });
        };
        for (const Pending &p : pending_) {
            if (!superseded(p))
                continue;
            AppliedMove fate;
            fate.file = p.req.file;
            fate.from = system_.location(p.req.file);
            fate.to = p.req.target;
            fate.outcome = AttemptOutcome::Superseded;
            fate.attempt = p.attempts + 1;
            logAttempt(fate, 0);
            supersededMetric_->inc();
        }
        pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                      superseded),
                       pending_.end());
    }

    // Cross-shard admission: consult the coordinator's per-device
    // budgets before each attempt. Out-of-range files pass through so
    // attemptMove() can record the Skipped fate as before.
    auto admits = [this](const MoveRequest &req) {
        if (!admission_ || req.file >= system_.fileCount())
            return true;
        const storage::FileObject &f = system_.file(req.file);
        return admission_->admitMove(f.location, req.target,
                                     f.sizeBytes);
    };

    // Drain the retries that have reached their due time.
    double now = system_.clock().now();
    std::vector<Pending> due;
    for (size_t i = 0; i < pending_.size();) {
        if (pending_[i].nextAttempt <= now) {
            due.push_back(pending_[i]);
            pending_.erase(pending_.begin() +
                           static_cast<ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
    // Retries that came due go back to the queue when the migrate
    // budget runs out mid-batch: unlike fresh requests (which the next
    // cycle re-proposes from newer data), a dropped retry would orphan
    // the Failed entry in the attempt log.
    size_t due_done = 0;
    for (const Pending &p : due) {
        if (overBudget()) {
            for (size_t i = due_done; i < due.size(); ++i)
                pending_.push_back(due[i]);
            break;
        }
        if (!admits(p.req)) {
            // A denied retry stays owed: back to the queue, due again
            // next cycle when the coordinator's budgets have reset.
            pending_.push_back(p);
            ++summary.deferred;
            deferredMetric_->inc();
            ++due_done;
            continue;
        }
        attemptMove(p.req, p.attempts, p.firstAttempt, summary);
        ++due_done;
    }

    for (const MoveRequest &req : moves) {
        if (overBudget())
            break;
        if (!admits(req)) {
            // A denied fresh move is simply dropped: the next cycle
            // re-proposes from newer telemetry anyway.
            ++summary.deferred;
            deferredMetric_->inc();
            continue;
        }
        attemptMove(req, 0, system_.clock().now(), summary);
    }

    size_t attempted = summary.outcomes.size();
    size_t owed = due.size() + moves.size();
    if (attempted + summary.deferred < owed) {
        summary.cancelled = owed - attempted - summary.deferred;
        cancelledMetric_->add(summary.cancelled);
        warn("control: migrate deadline hit, %zu move%s deferred",
             summary.cancelled, summary.cancelled == 1 ? "" : "s");
    }
    return summary;
}

bool
ControlAgent::overBudget()
{
    return watchdog_ && watchdog_->poll(system_.clock().now());
}

size_t
ControlAgent::abandonPending()
{
    size_t count = pending_.size();
    for (const Pending &p : pending_) {
        AppliedMove fate;
        fate.file = p.req.file;
        fate.from = system_.location(p.req.file);
        fate.to = p.req.target;
        fate.outcome = AttemptOutcome::Abandoned;
        fate.attempt = p.attempts + 1;
        logAttempt(fate, 0);
        abandonedMetric_->inc();
        ++totalAbandoned_;
    }
    pending_.clear();
    if (count > 0) {
        util::FlightRecorder::global().record(
            util::FlightKind::MovesAbandoned, system_.clock().now(),
            count);
        warn("control: abandoned %zu pending retr%s (safe mode)", count,
             count == 1 ? "y" : "ies");
    }
    return count;
}

size_t
ControlAgent::restorePending()
{
    if (!db_)
        return 0;
    // Scan the attempt log oldest-first: the last attempt seen per
    // (file, target) decides whether a retry is still owed.
    struct Last
    {
        AttemptOutcome outcome;
        size_t attempts;
        double firstAttempt;
    };
    std::map<std::pair<storage::FileId, storage::DeviceId>, Last> last;
    size_t total = static_cast<size_t>(db_->moveAttemptCount());
    for (const MoveAttemptRecord &rec : db_->recentMoveAttempts(total)) {
        auto key = std::make_pair(rec.file, rec.toDevice);
        auto it = last.find(key);
        Last entry;
        entry.outcome = rec.outcome;
        entry.attempts = static_cast<size_t>(rec.attempt);
        entry.firstAttempt = (it != last.end() && rec.attempt > 1)
                                 ? it->second.firstAttempt
                                 : rec.timestamp;
        last[key] = entry;
    }
    size_t restored = 0;
    double now = system_.clock().now();
    for (const auto &[key, entry] : last) {
        if (entry.outcome != AttemptOutcome::Failed)
            continue;
        // Idempotency: a retry already in the queue (an earlier call,
        // or a checkpoint restore) must not be queued twice.
        bool queued = std::any_of(
            pending_.begin(), pending_.end(), [&key](const Pending &p) {
                return p.req.file == key.first &&
                       p.req.target == key.second;
            });
        if (queued)
            continue;
        Pending pend;
        pend.req.file = key.first;
        pend.req.target = key.second;
        pend.attempts = entry.attempts;
        pend.firstAttempt = entry.firstAttempt;
        pend.nextAttempt = now; // due immediately after restart
        pending_.push_back(pend);
        ++restored;
    }
    if (restored > 0)
        inform("control: restored %zu pending retr%s from the attempt "
               "log", restored, restored == 1 ? "y" : "ies");
    return restored;
}

void
ControlAgent::saveState(util::StateWriter &w) const
{
    w.rng("control.rng", rng_);
    w.u64("control.total_moves", totalMoves_);
    w.u64("control.total_bytes", totalBytes_);
    w.u64("control.total_abandoned", totalAbandoned_);
    w.u64("control.pending", pending_.size());
    for (const Pending &p : pending_) {
        w.u64("pend.file", p.req.file);
        w.u64("pend.target", p.req.target);
        w.u64("pend.attempts", p.attempts);
        w.f64("pend.first", p.firstAttempt);
        w.f64("pend.next", p.nextAttempt);
    }
}

void
ControlAgent::loadState(util::StateReader &r)
{
    Rng::State rng = r.rng("control.rng");
    uint64_t moves = r.u64("control.total_moves");
    uint64_t bytes = r.u64("control.total_bytes");
    uint64_t abandoned = r.u64("control.total_abandoned");
    size_t count = r.u64("control.pending");
    std::deque<Pending> pending;
    for (size_t i = 0; i < count && r.ok(); ++i) {
        Pending p;
        p.req.file = r.u64("pend.file");
        p.req.target =
            static_cast<storage::DeviceId>(r.u64("pend.target"));
        p.attempts = r.u64("pend.attempts");
        p.firstAttempt = r.f64("pend.first");
        p.nextAttempt = r.f64("pend.next");
        pending.push_back(p);
    }
    if (!r.ok())
        return;
    rng_.setState(rng);
    totalMoves_ = moves;
    totalBytes_ = bytes;
    totalAbandoned_ = abandoned;
    pending_ = std::move(pending);
}

} // namespace core
} // namespace geo
