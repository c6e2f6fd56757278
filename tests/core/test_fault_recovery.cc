/**
 * @file
 * Tests for the resilient migration pipeline: retry with backoff and
 * deadline, attempt logging in the ReplayDB (crash-safe replay), the
 * scheduler's per-device circuit breaker, and the rule that no move is
 * ever admitted onto an offline device.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/action_checker.hh"
#include "core/control_agent.hh"
#include "core/geomancy.hh"
#include "core/movement_scheduler.hh"
#include "storage/bluesky.hh"
#include "storage/fault_injector.hh"
#include "workload/belle2.hh"

namespace geo {
namespace core {
namespace {

storage::FaultEvent
outage(storage::DeviceId device, double start, double duration)
{
    storage::FaultEvent ev;
    ev.device = device;
    ev.kind = storage::FaultKind::Outage;
    ev.start = start;
    ev.duration = duration;
    return ev;
}

/** Bluesky system + injector + file on device 0, target device 3. */
struct Fixture
{
    std::unique_ptr<storage::StorageSystem> system =
        storage::makeBlueskySystem();
    storage::FaultInjector injector{*system, {}};
    ReplayDb db;
    storage::FileId file;

    Fixture()
    {
        system->attachFaultInjector(&injector);
        file = system->addFile("f", 4 << 20, 0);
    }
};

/** Seed of the control agent's backoff jitter. */
constexpr uint64_t kSeed = 17;

/** Earliest and latest due time of the first retry. */
constexpr double kFirstRetryMin =
    kBackoffBaseSeconds * (1.0 - kBackoffJitter);
constexpr double kFirstRetryMax =
    kBackoffBaseSeconds * (1.0 + kBackoffJitter);

TEST(FaultRecovery, InterruptedMoveRetriedAndCompletes)
{
    Fixture fx;
    // Target offline until t = 15: the first attempt fails, the retry
    // (due at t = 30 s +/- jitter) lands after recovery and completes.
    fx.injector.addEvent(outage(3, 0.0, 15.0));
    ControlAgent agent(*fx.system, &fx.db, kSeed);

    MoveSummary first = agent.apply({{fx.file, 3}});
    EXPECT_EQ(first.applied, 0u);
    EXPECT_EQ(first.failed, 1u);
    EXPECT_EQ(first.requeued, 1u);
    EXPECT_EQ(agent.pendingRetries(), 1u);

    // Before the backoff expires nothing is due.
    fx.system->clock().advance(kFirstRetryMin - 1.0);
    MoveSummary quiet = agent.apply({});
    EXPECT_TRUE(quiet.outcomes.empty());
    EXPECT_EQ(agent.pendingRetries(), 1u);

    // Past the backoff and the outage: the retry runs and succeeds.
    fx.system->clock().advance(kFirstRetryMax - kFirstRetryMin + 2.0);
    MoveSummary second = agent.apply({});
    EXPECT_EQ(second.applied, 1u);
    EXPECT_EQ(agent.pendingRetries(), 0u);
    EXPECT_EQ(fx.system->location(fx.file), 3u);

    // Every attempt is visible in the ReplayDB, in order.
    auto attempts = fx.db.recentMoveAttempts(10);
    ASSERT_EQ(attempts.size(), 2u);
    EXPECT_EQ(attempts[0].outcome, AttemptOutcome::Failed);
    EXPECT_EQ(attempts[0].reason, storage::MoveFail::TargetOffline);
    EXPECT_EQ(attempts[0].attempt, 1);
    EXPECT_EQ(attempts[1].outcome, AttemptOutcome::Applied);
    EXPECT_EQ(attempts[1].attempt, 2);
}

TEST(FaultRecovery, BackoffIsJitteredAroundTheBase)
{
    // Step the clock until the first retry runs: under every seed it
    // is due within kBackoffJitter of kBackoffBaseSeconds, and the
    // seeds do not all agree on when.
    std::set<double> due_times;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Fixture fx;
        fx.injector.addEvent(outage(3, 0.0, 0.0)); // permanent
        ControlAgent agent(*fx.system, &fx.db, seed);
        agent.apply({{fx.file, 3}});
        bool retried = false;
        while (!retried && fx.system->clock().now() <= kFirstRetryMax) {
            fx.system->clock().advance(0.5);
            retried = !agent.apply({}).outcomes.empty();
        }
        ASSERT_TRUE(retried) << "seed " << seed;
        double due = fx.system->clock().now();
        EXPECT_GE(due, kFirstRetryMin) << "seed " << seed;
        EXPECT_LE(due, kFirstRetryMax + 0.5) << "seed " << seed;
        due_times.insert(due);
    }
    EXPECT_GT(due_times.size(), 1u);
}

TEST(FaultRecovery, MoveAbandonedWhenAttemptsExhausted)
{
    Fixture fx;
    fx.injector.addEvent(outage(3, 0.0, 0.0)); // permanent
    ControlAgent agent(*fx.system, &fx.db, kSeed);

    // Each step outlasts every backoff, and all of them together stay
    // well inside the move deadline: only the attempt cap can bind.
    agent.apply({{fx.file, 3}});
    for (int i = 0; i < 5; ++i) {
        fx.system->clock().advance(200.0);
        agent.apply({});
    }
    ASSERT_LT(fx.system->clock().now(), kMoveDeadlineSeconds);
    EXPECT_EQ(agent.pendingRetries(), 0u);
    EXPECT_EQ(agent.totalAbandoned(), 1u);
    EXPECT_EQ(fx.system->location(fx.file), 0u);

    auto attempts = fx.db.recentMoveAttempts(10);
    ASSERT_EQ(attempts.size(), kMaxMoveAttempts); // every try logged
    EXPECT_EQ(attempts.back().outcome, AttemptOutcome::Abandoned);
    EXPECT_EQ(attempts.back().attempt, static_cast<int>(kMaxMoveAttempts));
}

TEST(FaultRecovery, MoveAbandonedAtDeadline)
{
    Fixture fx;
    fx.injector.addEvent(outage(3, 0.0, 0.0));
    ControlAgent agent(*fx.system, &fx.db, kSeed);

    agent.apply({{fx.file, 3}});
    // The second attempt fails well inside the deadline: requeued.
    fx.system->clock().advance(kFirstRetryMax + 2.0);
    MoveSummary second = agent.apply({});
    EXPECT_EQ(second.failed, 1u);
    EXPECT_EQ(second.requeued, 1u);
    // The third fails as the deadline passes, with attempts to spare.
    fx.system->clock().advance(kMoveDeadlineSeconds - kFirstRetryMax - 2.0);
    MoveSummary third = agent.apply({});
    EXPECT_EQ(third.failed, 1u);
    EXPECT_EQ(third.abandoned, 1u);
    EXPECT_EQ(agent.pendingRetries(), 0u);
    EXPECT_EQ(agent.totalAbandoned(), 1u);
    auto log = fx.db.recentMoveAttempts(100);
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log.back().outcome, AttemptOutcome::Abandoned);
    EXPECT_LT(static_cast<size_t>(log.back().attempt), kMaxMoveAttempts);
}

TEST(FaultRecovery, NewRequestSupersedesPendingRetry)
{
    Fixture fx;
    fx.injector.addEvent(outage(3, 0.0, 0.0));
    ControlAgent agent(*fx.system, &fx.db, kSeed);
    agent.apply({{fx.file, 3}});
    EXPECT_EQ(agent.pendingRetries(), 1u);
    // The model changed its mind: send the file to device 1 instead.
    MoveSummary summary = agent.apply({{fx.file, 1}});
    EXPECT_EQ(summary.applied, 1u);
    EXPECT_EQ(agent.pendingRetries(), 0u);
    EXPECT_EQ(fx.system->location(fx.file), 1u);
}

TEST(FaultRecovery, SkippedInvalidMovesCounted)
{
    Fixture fx;
    ControlAgent agent(*fx.system, &fx.db, kSeed);
    MoveSummary summary = agent.apply({
        {fx.file, 0},  // no-op: already there
        {fx.file, 99}, // no such device
    });
    EXPECT_EQ(summary.requested, 2u);
    EXPECT_EQ(summary.applied, 0u);
    EXPECT_EQ(summary.skipped, 2u);
    EXPECT_EQ(summary.failed, 0u);
    EXPECT_EQ(agent.pendingRetries(), 0u); // invalid != retryable
    ASSERT_EQ(summary.outcomes.size(), 2u);
    EXPECT_EQ(summary.outcomes[0].reason,
              storage::MoveFail::SameDevice);
    EXPECT_EQ(summary.outcomes[1].reason,
              storage::MoveFail::NoSuchDevice);
    // Skips are in the attempt log too.
    EXPECT_EQ(fx.db.moveAttemptCount(), 2);
}

TEST(FaultRecovery, RestorePendingAfterCrash)
{
    Fixture fx;
    fx.injector.addEvent(outage(3, 0.0, 30.0));
    {
        ControlAgent agent(*fx.system, &fx.db, kSeed);
        agent.apply({{fx.file, 3}});
        EXPECT_EQ(agent.pendingRetries(), 1u);
        // The agent "crashes" here: its queue dies with it.
    }
    fx.system->clock().advance(60.0); // outage over

    ControlAgent revived(*fx.system, &fx.db, kSeed);
    EXPECT_EQ(revived.pendingRetries(), 0u);
    EXPECT_EQ(revived.restorePending(), 1u);
    EXPECT_EQ(revived.pendingRetries(), 1u);
    MoveSummary summary = revived.apply({});
    EXPECT_EQ(summary.applied, 1u);
    EXPECT_EQ(fx.system->location(fx.file), 3u);
    // Nothing left to restore: the last attempt logged is Applied.
    ControlAgent third(*fx.system, &fx.db, kSeed);
    EXPECT_EQ(third.restorePending(), 0u);
}

TEST(FaultRecovery, CheckerNeverTargetsOfflineDevice)
{
    Fixture fx;
    fx.injector.addEvent(outage(3, 0.0, 0.0));
    fx.injector.advanceTo(1.0);
    ActionChecker checker(*fx.system);

    std::vector<storage::DeviceId> valid =
        checker.validDevices(fx.file, fx.system->deviceIds());
    EXPECT_EQ(std::count(valid.begin(), valid.end(), 3u), 0);
    // Random (exploration) moves avoid it too.
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        auto move = checker.randomMove(fx.file, rng);
        ASSERT_TRUE(move.has_value());
        EXPECT_NE(move->to, 3u);
    }
}

TEST(FaultRecovery, CheckerSkipsDegradedTargets)
{
    Fixture fx;
    storage::FaultEvent ev;
    ev.device = 3;
    ev.kind = storage::FaultKind::Degradation;
    ev.start = 0.0;
    ev.duration = 0.0;
    ev.magnitude = 0.3; // below kMinHealthFactor (0.5)
    fx.injector.addEvent(ev);
    fx.injector.advanceTo(1.0);
    ActionChecker checker(*fx.system);
    std::vector<storage::DeviceId> valid =
        checker.validDevices(fx.file, fx.system->deviceIds());
    EXPECT_EQ(std::count(valid.begin(), valid.end(), 3u), 0);
}

TEST(FaultRecovery, CheckerStaysQuietWhenSourceOffline)
{
    Fixture fx;
    fx.injector.addEvent(outage(0, 0.0, 0.0)); // the file's own device
    fx.injector.advanceTo(1.0);
    ActionChecker checker(*fx.system);
    Rng rng(11);
    EXPECT_EQ(checker.randomMove(fx.file, rng), std::nullopt);
    std::vector<CandidateScore> scores;
    for (storage::DeviceId id : fx.system->deviceIds())
        scores.push_back({id, 1000.0});
    EXPECT_EQ(checker.selectMove(fx.file, scores, rng), std::nullopt);
}

CheckedMove
moveOf(storage::FileId file, storage::DeviceId to)
{
    CheckedMove move;
    move.file = file;
    move.to = to;
    move.predictedGain = 0.5;
    return move;
}

/** Scheduler with only the breaker in play. */
SchedulerConfig
breakerOnly()
{
    SchedulerConfig config;
    config.fileCooldownSeconds = 0.0;
    config.checkGaps = false;
    return config;
}

/** Record `count` failed moves onto `target`, one per second from
 *  `start`. */
void
failMoves(MovementScheduler &scheduler, storage::DeviceId target,
          size_t count, double start)
{
    for (size_t i = 0; i < count; ++i)
        scheduler.recordMoveOutcome(target, false,
                                    start + static_cast<double>(i));
}

TEST(FaultRecovery, BreakerOpensAfterRepeatedFailures)
{
    Fixture fx;
    MovementScheduler scheduler(*fx.system, fx.db, breakerOnly());

    EXPECT_EQ(scheduler.breakerState(3, 0.0), BreakerState::Closed);
    failMoves(scheduler, 3, kBreakerFailureThreshold - 1, 1.0);
    double now = static_cast<double>(kBreakerFailureThreshold);
    EXPECT_EQ(scheduler.breakerState(3, now), BreakerState::Closed);
    EXPECT_TRUE(scheduler.admit(moveOf(fx.file, 3), now));
    scheduler.recordMoveOutcome(3, false, now);
    EXPECT_EQ(scheduler.breakerState(3, now), BreakerState::Open);

    // Open: every move onto device 3 is rejected; others still pass.
    EXPECT_FALSE(scheduler.admit(moveOf(fx.file, 3), now + 1.0));
    EXPECT_EQ(scheduler.rejectedByBreaker(), 1u);
    EXPECT_TRUE(scheduler.admit(moveOf(fx.file, 2), now + 1.0));
}

TEST(FaultRecovery, BreakerHalfOpenProbeThenClose)
{
    Fixture fx;
    storage::FileId other = fx.system->addFile("g", 1 << 20, 0);
    MovementScheduler scheduler(*fx.system, fx.db, breakerOnly());
    failMoves(scheduler, 3, kBreakerFailureThreshold, 1.0);
    double opened = static_cast<double>(kBreakerFailureThreshold);
    ASSERT_EQ(scheduler.breakerState(3, opened), BreakerState::Open);

    // Still open just before the cooldown ends.
    double probe_at = opened + kBreakerCooldownSeconds;
    EXPECT_FALSE(scheduler.admit(moveOf(fx.file, 3), probe_at - 1.0));
    EXPECT_EQ(scheduler.breakerState(3, probe_at - 1.0), BreakerState::Open);

    // After the cooldown exactly one probe move is admitted.
    EXPECT_TRUE(scheduler.admit(moveOf(fx.file, 3), probe_at));
    EXPECT_EQ(scheduler.breakerState(3, probe_at), BreakerState::HalfOpen);
    EXPECT_FALSE(scheduler.admit(moveOf(other, 3), probe_at));

    // Probe succeeds: breaker closes, admission resumes.
    scheduler.recordMoveOutcome(3, true, probe_at + 1.0);
    EXPECT_EQ(scheduler.breakerState(3, probe_at + 1.0),
              BreakerState::Closed);
    EXPECT_TRUE(scheduler.admit(moveOf(other, 3), probe_at + 2.0));
}

TEST(FaultRecovery, BreakerReopensOnFailedProbe)
{
    Fixture fx;
    MovementScheduler scheduler(*fx.system, fx.db, breakerOnly());
    failMoves(scheduler, 3, kBreakerFailureThreshold, 1.0);
    double probe_at =
        static_cast<double>(kBreakerFailureThreshold) +
        kBreakerCooldownSeconds;
    EXPECT_TRUE(scheduler.admit(moveOf(fx.file, 3), probe_at)); // probe
    scheduler.recordMoveOutcome(3, false, probe_at + 1.0);
    EXPECT_EQ(scheduler.breakerState(3, probe_at + 1.0), BreakerState::Open);
    EXPECT_FALSE(scheduler.admit(moveOf(fx.file, 3), probe_at + 2.0));
    // A fresh cooldown must elapse before the next probe.
    double reprobe_at = probe_at + 1.0 + kBreakerCooldownSeconds;
    EXPECT_FALSE(scheduler.admit(moveOf(fx.file, 3), reprobe_at - 1.0));
    EXPECT_TRUE(scheduler.admit(moveOf(fx.file, 3), reprobe_at));
}

TEST(FaultRecovery, BreakerWindowForgetsOldFailures)
{
    Fixture fx;
    MovementScheduler scheduler(*fx.system, fx.db, breakerOnly());
    failMoves(scheduler, 3, kBreakerFailureThreshold - 1, 0.0);
    // The last failure arrives after the first ones left the window...
    scheduler.recordMoveOutcome(3, false, kBreakerWindowSeconds + 10.0);
    EXPECT_EQ(scheduler.breakerState(3, kBreakerWindowSeconds + 10.0),
              BreakerState::Closed);

    // ...while the same failures inside one window trip it.
    MovementScheduler inside(*fx.system, fx.db, breakerOnly());
    failMoves(inside, 3, kBreakerFailureThreshold - 1, 0.0);
    inside.recordMoveOutcome(3, false, kBreakerWindowSeconds - 10.0);
    EXPECT_EQ(inside.breakerState(3, kBreakerWindowSeconds - 10.0),
              BreakerState::Open);
}

TEST(FaultRecovery, GeomancyNeverMovesOntoOfflineDevice)
{
    // End-to-end: a mount dies mid-run; from that point on no
    // movement may land on it.
    auto system = storage::makeBlueskySystem();
    storage::FaultInjector injector(*system, {});
    system->attachFaultInjector(&injector);
    workload::Belle2Workload workload(*system);

    GeomancyConfig config;
    config.drl.epochs = 8;
    config.minHistory = 200;
    config.useScheduler = true;
    config.scheduler.checkGaps = false;
    config.scheduler.fileCooldownSeconds = 0.0;
    Geomancy geomancy(*system, workload.files(), config);

    for (int run = 0; run < 4; ++run)
        workload.executeRun();
    for (int cycle = 0; cycle < 2; ++cycle) {
        geomancy.runCycle();
        workload.executeRun();
    }
    const storage::DeviceId dead = 2;
    double death_time = system->clock().now();
    injector.addEvent(outage(dead, death_time, 0.0));
    for (int cycle = 0; cycle < 6; ++cycle) {
        workload.executeRun();
        geomancy.runCycle();
    }
    for (const MovementRecord &move :
         geomancy.replayDb().recentMovements(1000)) {
        if (move.timestamp > death_time) {
            EXPECT_NE(move.toDevice, dead)
                << "move onto dead device at t=" << move.timestamp;
        }
    }
}

TEST(FaultRecovery, ScenarioIsSeedDeterministic)
{
    // The same faulty scenario run twice from the same seed must
    // produce bit-identical movement histories and layouts.
    auto run = [](uint64_t seed) {
        auto system = storage::makeBlueskySystem();
        storage::FaultInjectorConfig fconfig;
        fconfig.seed = seed ^ 0x5eedULL;
        storage::FaultInjector injector(*system, fconfig);
        system->attachFaultInjector(&injector);
        injector.addEvent({1, storage::FaultKind::TransientErrors, 0.0,
                           0.0, 0.2});
        injector.addEvent({2, storage::FaultKind::Degradation, 50.0,
                           0.0, 0.4});
        workload::Belle2Config wconfig;
        wconfig.seed = seed;
        workload::Belle2Workload workload(*system, wconfig);
        GeomancyConfig config;
        config.drl.epochs = 8;
        config.minHistory = 200;
        config.seed = seed;
        config.useScheduler = true;
        Geomancy geomancy(*system, workload.files(), config);
        for (int run_i = 0; run_i < 6; ++run_i) {
            workload.executeRun();
            geomancy.runCycle();
        }
        std::vector<std::tuple<double, storage::FileId,
                               storage::DeviceId>> history;
        for (const MovementRecord &m :
             geomancy.replayDb().recentMovements(1000))
            history.emplace_back(m.timestamp, m.file, m.toDevice);
        return std::make_pair(history, system->layout());
    };
    auto a = run(42);
    auto b = run(42);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

} // namespace
} // namespace core
} // namespace geo
