/**
 * @file
 * Tests for the guardrail subsystem: every quarantine reject reason,
 * the hold-layout floor, the safe-mode trip/probe/backoff state
 * machine, checkpoint round-trips, recovery from a migrate overrun,
 * and the recording-only guarantee: a clean run quarantines, holds,
 * trips and overruns nothing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "core/geomancy.hh"
#include "core/guardrails.hh"
#include "storage/bluesky.hh"
#include "util/state_io.hh"
#include "workload/belle2.hh"

namespace geo {
namespace core {
namespace {

PerfRecord
cleanRecord(double now = 100.0)
{
    PerfRecord rec;
    rec.file = 42;
    rec.device = 1;
    rec.rb = 1 << 20;
    rec.wb = 0;
    rec.ots = static_cast<int64_t>(now) - 1;
    rec.otms = 250;
    rec.cts = static_cast<int64_t>(now);
    rec.ctms = 500;
    rec.throughput = 5e8;
    return rec;
}

struct Fixture
{
    SimClock clock;
    GuardrailsConfig config;

    Guardrails
    make()
    {
        return Guardrails(config, clock);
    }
};

TEST(GuardrailsAdmit, CleanRecordPasses)
{
    Fixture fx;
    fx.clock.advance(100.0);
    Guardrails guard = fx.make();
    EXPECT_TRUE(guard.admit(cleanRecord(), nullptr));
    EXPECT_EQ(guard.admitted(), 1u);
    EXPECT_EQ(guard.quarantined(), 0u);
    EXPECT_EQ(guard.cycleAdmitted(), 1u);
}

TEST(GuardrailsAdmit, RejectsNonFiniteThroughput)
{
    Fixture fx;
    fx.clock.advance(100.0);
    Guardrails guard = fx.make();
    PerfRecord rec = cleanRecord();
    rec.throughput = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(guard.admit(rec, nullptr));
    rec.throughput = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(guard.admit(rec, nullptr));
    EXPECT_EQ(guard.quarantinedFor(QuarantineReason::NonFinite), 2u);
    EXPECT_EQ(guard.quarantine().size(), 2u);
}

TEST(GuardrailsAdmit, RejectsNegativeThroughput)
{
    Fixture fx;
    fx.clock.advance(100.0);
    Guardrails guard = fx.make();
    PerfRecord rec = cleanRecord();
    rec.throughput = -1.0;
    EXPECT_FALSE(guard.admit(rec, nullptr));
    EXPECT_EQ(guard.quarantinedFor(QuarantineReason::NegativeThroughput),
              1u);
}

TEST(GuardrailsAdmit, RejectsCloseBeforeOpen)
{
    Fixture fx;
    fx.clock.advance(100.0);
    Guardrails guard = fx.make();
    PerfRecord rec = cleanRecord();
    rec.cts = rec.ots - 10;
    EXPECT_FALSE(guard.admit(rec, nullptr));
    EXPECT_EQ(guard.quarantinedFor(QuarantineReason::BadDuration), 1u);
}

TEST(GuardrailsAdmit, RejectsOutOfRangeFields)
{
    Fixture fx;
    fx.clock.advance(100.0);
    Guardrails guard = fx.make();
    PerfRecord rec = cleanRecord();
    rec.throughput = 1e13; // above kMaxThroughput
    EXPECT_FALSE(guard.admit(rec, nullptr));
    rec = cleanRecord();
    rec.rb = 1ULL << 60; // above kMaxAccessBytes
    EXPECT_FALSE(guard.admit(rec, nullptr));
    rec = cleanRecord();
    rec.wb = 1ULL << 60;
    EXPECT_FALSE(guard.admit(rec, nullptr));
    EXPECT_EQ(guard.quarantinedFor(QuarantineReason::OutOfRange), 3u);
}

TEST(GuardrailsAdmit, RejectsFarFutureTimestamps)
{
    Fixture fx;
    fx.clock.advance(100.0);
    Guardrails guard = fx.make();
    PerfRecord rec = cleanRecord();
    rec.cts = static_cast<int64_t>(100.0 + fx.config.maxFutureSkewSeconds) +
              10;
    EXPECT_FALSE(guard.admit(rec, nullptr));
    EXPECT_EQ(guard.quarantinedFor(QuarantineReason::Future), 1u);
    // Mild future skew (concurrent accesses) is legitimate.
    rec = cleanRecord();
    rec.cts = 150;
    EXPECT_TRUE(guard.admit(rec, nullptr));
}

TEST(GuardrailsAdmit, RejectsStaleTimestamps)
{
    Fixture fx;
    fx.clock.advance(2.0 * 86400.0 + 100.0);
    Guardrails guard = fx.make();
    PerfRecord rec = cleanRecord(100.0); // closed ~2 days before now
    EXPECT_FALSE(guard.admit(rec, nullptr));
    EXPECT_EQ(guard.quarantinedFor(QuarantineReason::Stale), 1u);
}

TEST(GuardrailsAdmit, RejectsExactDuplicateOfPreviousPending)
{
    Fixture fx;
    fx.clock.advance(100.0);
    Guardrails guard = fx.make();
    PerfRecord first = cleanRecord();
    EXPECT_TRUE(guard.admit(first, nullptr));
    // Same record again, anchored on the pending predecessor.
    EXPECT_FALSE(guard.admit(first, &first));
    EXPECT_EQ(guard.quarantinedFor(QuarantineReason::Duplicate), 1u);
    // Any field difference defeats the duplicate check.
    PerfRecord second = first;
    second.ctms += 1;
    EXPECT_TRUE(guard.admit(second, &first));
    // No predecessor (batch boundary) admits even an identical record.
    EXPECT_TRUE(guard.admit(first, nullptr));
}

TEST(GuardrailsAdmit, QuarantineRingIsBounded)
{
    Fixture fx;
    fx.clock.advance(100.0);
    Guardrails guard = fx.make();
    PerfRecord rec = cleanRecord();
    rec.throughput = -1.0;
    const size_t overflow = 10;
    const size_t total = Guardrails::kQuarantineCapacity + overflow;
    for (size_t i = 0; i < total; ++i) {
        rec.rb = i;
        guard.admit(rec, nullptr);
    }
    EXPECT_EQ(guard.quarantine().size(), Guardrails::kQuarantineCapacity);
    EXPECT_EQ(guard.quarantined(), total);
    // Oldest entries were evicted: the ring holds the newest ones.
    EXPECT_EQ(guard.quarantine().front().record.rb, overflow);
    EXPECT_EQ(guard.quarantine().back().record.rb, total - 1);
}

/** Admit `count` distinct clean records. */
void
admitClean(Guardrails &guard, size_t count)
{
    PerfRecord good = cleanRecord();
    for (size_t i = 0; i < count; ++i) {
        good.ctms = 100 + static_cast<int64_t>(i);
        ASSERT_TRUE(guard.admit(good, nullptr));
    }
}

TEST(GuardrailsCycle, HoldsLayoutOnQuarantineStarvation)
{
    Fixture fx;
    fx.clock.advance(100.0);
    Guardrails guard = fx.make();
    guard.beginCycle();
    EXPECT_FALSE(guard.holdLayout()); // nothing quarantined: no hold
    PerfRecord bad = cleanRecord();
    bad.throughput = -1.0;
    guard.admit(bad, nullptr);
    EXPECT_TRUE(guard.holdLayout()); // 0 admitted, 1 quarantined
    admitClean(guard, kMinAdmittedPerCycle - 1);
    EXPECT_TRUE(guard.holdLayout()); // one short of the floor
    admitClean(guard, 1);
    EXPECT_FALSE(guard.holdLayout()); // enough clean telemetry survived
}

TEST(GuardrailsCycle, FloodNeedsVolumeAndMajority)
{
    Fixture fx;
    fx.clock.advance(100.0);
    Guardrails guard = fx.make();
    guard.beginCycle();
    PerfRecord bad = cleanRecord();
    bad.throughput = -1.0;
    for (size_t i = 0; i + 1 < kFloodMinQuarantined; ++i)
        guard.admit(bad, nullptr);
    EXPECT_FALSE(guard.quarantineFlood()); // one below the volume floor
    guard.admit(bad, nullptr);
    EXPECT_TRUE(guard.quarantineFlood()); // at the floor, 0 admitted
    admitClean(guard, kFloodMinQuarantined - 1);
    EXPECT_TRUE(guard.quarantineFlood()); // still a quarantined majority
    admitClean(guard, 1);
    EXPECT_FALSE(guard.quarantineFlood()); // a tie is no majority
}

CycleEvidence
evidence(uint64_t cycle, bool trained = true)
{
    CycleEvidence ev;
    ev.cycle = cycle;
    ev.trained = trained;
    return ev;
}

TEST(GuardrailsSafeMode, TripsOnConsecutiveOverruns)
{
    Fixture fx;
    fx.clock.advance(1.0);
    Guardrails guard = fx.make();
    uint64_t cycle = 1;
    for (size_t i = 0; i + 1 < kOverrunTripThreshold; ++i) {
        CycleEvidence ev = evidence(cycle++);
        ev.overrun = true;
        EXPECT_EQ(guard.observeCycle(ev), GuardrailTransition::None);
    }
    // A clean cycle resets the streak.
    EXPECT_EQ(guard.observeCycle(evidence(cycle++)),
              GuardrailTransition::None);
    for (size_t i = 0; i + 1 < kOverrunTripThreshold; ++i) {
        CycleEvidence ev = evidence(cycle++);
        ev.overrun = true;
        EXPECT_EQ(guard.observeCycle(ev), GuardrailTransition::None);
        EXPECT_FALSE(guard.safeMode());
    }
    CycleEvidence ev = evidence(cycle);
    ev.overrun = true;
    EXPECT_EQ(guard.observeCycle(ev), GuardrailTransition::Entered);
    EXPECT_TRUE(guard.safeMode());
    EXPECT_EQ(guard.safeModeEntries(), 1u);
    EXPECT_EQ(guard.nextProbeCycle(), cycle + kProbeBackoffBase);
}

TEST(GuardrailsSafeMode, TripsOnFloodAndOnDivergence)
{
    Fixture fx;
    fx.clock.advance(1.0);
    {
        Guardrails guard = fx.make();
        for (uint64_t c = 1;; ++c) {
            CycleEvidence ev = evidence(c);
            ev.flood = true;
            GuardrailTransition t = guard.observeCycle(ev);
            if (c < kFloodTripThreshold) {
                EXPECT_EQ(t, GuardrailTransition::None);
            } else {
                EXPECT_EQ(t, GuardrailTransition::Entered);
                break;
            }
        }
        EXPECT_TRUE(guard.safeMode());
    }
    {
        Guardrails guard = fx.make();
        for (uint64_t c = 1;; ++c) {
            CycleEvidence ev = evidence(c, /*trained=*/false);
            ev.diverged = true;
            GuardrailTransition t = guard.observeCycle(ev);
            if (c < kDivergenceTripThreshold) {
                EXPECT_EQ(t, GuardrailTransition::None);
            } else {
                EXPECT_EQ(t, GuardrailTransition::Entered);
                break;
            }
        }
        EXPECT_TRUE(guard.safeMode());
    }
}

TEST(GuardrailsSafeMode, ProbeScheduleBacksOffExponentially)
{
    Fixture fx;
    fx.clock.advance(1.0);
    Guardrails guard = fx.make();
    CycleEvidence trip = evidence(10);
    trip.flood = true;
    guard.observeCycle(trip);
    trip.cycle = 11;
    ASSERT_EQ(guard.observeCycle(trip), GuardrailTransition::Entered);
    ASSERT_TRUE(guard.safeMode());
    uint64_t probe_at = guard.nextProbeCycle();
    EXPECT_EQ(probe_at, 11u + kProbeBackoffBase);

    // Non-probe safe-mode cycles change nothing.
    EXPECT_FALSE(guard.probeDue(probe_at - 1));
    EXPECT_EQ(guard.observeCycle(evidence(probe_at - 1, false)),
              GuardrailTransition::None);
    EXPECT_EQ(guard.nextProbeCycle(), probe_at);

    // Failed probes double the wait, up to the cap.
    uint64_t expected_wait = kProbeBackoffBase;
    for (int i = 0; i < 6; ++i) {
        uint64_t due = guard.nextProbeCycle();
        EXPECT_TRUE(guard.probeDue(due));
        CycleEvidence probe = evidence(due, /*trained=*/false);
        probe.probe = true;
        EXPECT_EQ(guard.observeCycle(probe), GuardrailTransition::None);
        expected_wait =
            std::min(expected_wait * kProbeBackoffMultiplier,
                     kProbeBackoffMax);
        EXPECT_EQ(guard.nextProbeCycle(), due + expected_wait);
        EXPECT_EQ(guard.backoffLevel(), static_cast<uint64_t>(i + 1));
    }

    // A healthy probe exits and resets everything.
    uint64_t due = guard.nextProbeCycle();
    CycleEvidence healthy = evidence(due);
    healthy.probe = true;
    EXPECT_EQ(guard.observeCycle(healthy), GuardrailTransition::Exited);
    EXPECT_FALSE(guard.safeMode());
    EXPECT_EQ(guard.safeModeExits(), 1u);
    EXPECT_EQ(guard.backoffLevel(), 0u);
}

TEST(GuardrailsSafeMode, UnhealthyProbeReasonsKeepItSafe)
{
    Fixture fx;
    fx.clock.advance(1.0);
    Guardrails guard = fx.make();
    CycleEvidence trip = evidence(1);
    trip.flood = true;
    guard.observeCycle(trip);
    trip.cycle = 2;
    guard.observeCycle(trip);
    ASSERT_TRUE(guard.safeMode());

    const char *cases[] = {"diverged", "flood", "overrun", "held",
                           "untrained"};
    for (const char *why : cases) {
        uint64_t due = guard.nextProbeCycle();
        CycleEvidence probe = evidence(due);
        probe.probe = true;
        if (std::string(why) == "diverged")
            probe.diverged = true;
        else if (std::string(why) == "flood")
            probe.flood = true;
        else if (std::string(why) == "overrun")
            probe.overrun = true;
        else if (std::string(why) == "held")
            probe.held = true;
        else
            probe.trained = false;
        EXPECT_EQ(guard.observeCycle(probe), GuardrailTransition::None)
            << why;
        EXPECT_TRUE(guard.safeMode()) << why;
    }
}

TEST(GuardrailsState, RoundTripsThroughStateIo)
{
    Fixture fx;
    fx.clock.advance(50.0);
    Guardrails guard = fx.make();

    // Build non-trivial state: counters, a trip, a failed probe.
    PerfRecord bad = cleanRecord(50.0);
    bad.throughput = -2.0;
    guard.admit(bad, nullptr);
    PerfRecord good = cleanRecord(50.0);
    guard.admit(good, nullptr);
    CycleEvidence trip = evidence(5);
    trip.flood = true;
    guard.observeCycle(trip);
    trip.cycle = 6;
    guard.observeCycle(trip);
    uint64_t due = guard.nextProbeCycle();
    CycleEvidence probe = evidence(due, /*trained=*/false);
    probe.probe = true;
    guard.observeCycle(probe);
    guard.watchdog().setOverruns(3);

    std::ostringstream os;
    util::StateWriter w(os);
    guard.saveState(w);

    Guardrails restored = fx.make();
    std::istringstream is(os.str());
    util::StateReader r(is);
    restored.loadState(r);
    ASSERT_TRUE(r.ok()) << r.error();

    EXPECT_EQ(restored.safeMode(), guard.safeMode());
    EXPECT_EQ(restored.backoffLevel(), guard.backoffLevel());
    EXPECT_EQ(restored.nextProbeCycle(), guard.nextProbeCycle());
    EXPECT_EQ(restored.safeModeEntries(), guard.safeModeEntries());
    EXPECT_EQ(restored.safeModeExits(), guard.safeModeExits());
    EXPECT_EQ(restored.admitted(), guard.admitted());
    EXPECT_EQ(restored.quarantined(), guard.quarantined());
    for (size_t i = 0; i < kQuarantineReasonCount; ++i) {
        auto reason = static_cast<QuarantineReason>(i);
        EXPECT_EQ(restored.quarantinedFor(reason),
                  guard.quarantinedFor(reason));
    }
    EXPECT_EQ(restored.watchdog().overruns(), 3u);

    // The restored machine continues the probe schedule seamlessly.
    uint64_t next = restored.nextProbeCycle();
    CycleEvidence healthy = evidence(next);
    healthy.probe = true;
    EXPECT_EQ(restored.observeCycle(healthy), GuardrailTransition::Exited);
}

TEST(GuardrailsState, RejectsTruncatedState)
{
    Fixture fx;
    Guardrails guard = fx.make();
    std::ostringstream os;
    util::StateWriter w(os);
    guard.saveState(w);
    std::string text = os.str();
    std::istringstream is(text.substr(0, text.size() / 2));
    util::StateReader r(is);
    Guardrails restored = fx.make();
    restored.loadState(r);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(restored.safeMode());
}

// A migrate overrun must not leak into a later retrain: with
// foreground moves a 1 ms migrate budget overruns on the first
// migration, and the out-of-cycle predictLayout() that follows still
// trains a usable model and proposes moves.
TEST(GuardrailsDeadline, PredictLayoutWorksAfterMigrateOverrun)
{
    storage::SystemConfig scfg;
    scfg.backgroundMoves = false;
    storage::StorageSystem system(scfg);
    for (const storage::DeviceConfig &dc : storage::blueskyDeviceConfigs())
        system.addDevice(dc);
    workload::Belle2Workload workload(system);
    GeomancyConfig config;
    config.drl.epochs = 4;
    config.minHistory = 200;
    config.explorationRate = 1.0; // every acting cycle migrates
    config.guardrails.migrateBudgetSeconds = 0.001;
    Geomancy geomancy(system, workload.files(), config);
    for (int cycle = 0;
         cycle < 10 && geomancy.guardrails().watchdog().overruns() == 0;
         ++cycle) {
        workload.executeRun();
        geomancy.runCycle();
    }
    ASSERT_GT(geomancy.guardrails().watchdog().overruns(), 0u);

    std::vector<MoveRequest> moves = geomancy.predictLayout();
    EXPECT_TRUE(geomancy.engine().ready());
    EXPECT_FALSE(moves.empty());
}

// The recording-only guarantee (the fig5a standard): on a clean run
// validation admits every legitimate record and trips nothing, so the
// guardrails never change a decision — nothing is quarantined, no
// cycle holds the layout, safe mode never trips and no phase overruns.
TEST(GuardrailsIdentity, CleanRunQuarantinesHoldsAndTripsNothing)
{
    auto system = storage::makeBlueskySystem(7);
    workload::Belle2Workload workload(*system);
    GeomancyConfig config;
    config.drl.epochs = 6;
    config.minHistory = 200;
    Geomancy geomancy(*system, workload.files(), config);
    size_t acted = 0;
    for (int cycle = 0; cycle < 6; ++cycle) {
        workload.executeRun();
        CycleReport report = geomancy.runCycle();
        EXPECT_FALSE(report.held) << "cycle " << cycle;
        EXPECT_FALSE(report.safeMode) << "cycle " << cycle;
        acted += report.acted ? 1 : 0;
    }
    EXPECT_GT(acted, 0u);
    const Guardrails &guard = geomancy.guardrails();
    EXPECT_GT(guard.admitted(), 0u);
    EXPECT_EQ(guard.quarantined(), 0u);
    EXPECT_TRUE(guard.quarantine().empty());
    EXPECT_EQ(guard.safeModeEntries(), 0u);
    EXPECT_EQ(geomancy.guardrails().watchdog().overruns(), 0u);
}

} // namespace
} // namespace core
} // namespace geo
