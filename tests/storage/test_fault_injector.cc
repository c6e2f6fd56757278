/**
 * @file
 * Tests for the fault injector: scheduled episodes must land exactly
 * where the schedule puts them, push the right health state onto the
 * devices, fail the right accesses and migrations, and replay
 * identically under the same seed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "storage/fault_injector.hh"
#include "storage/system.hh"
#include "util/state_io.hh"

namespace geo {
namespace storage {
namespace {

DeviceConfig
quietDevice(const std::string &name, double bw = 1e9)
{
    DeviceConfig config;
    config.name = name;
    config.readBandwidth = bw;
    config.writeBandwidth = bw;
    config.capacityBytes = 1ULL << 30;
    config.traffic.baseLoad = 0.0;
    config.traffic.diurnalAmplitude = 0.0;
    config.traffic.burstProbability = 0.0;
    config.traffic.noiseAmplitude = 0.0;
    return config;
}

StorageSystem
twoDeviceSystem()
{
    StorageSystem system;
    system.addDevice(quietDevice("a"));
    system.addDevice(quietDevice("b"));
    return system;
}

FaultEvent
event(DeviceId device, FaultKind kind, double start, double duration,
      double magnitude = 0.0)
{
    FaultEvent ev;
    ev.device = device;
    ev.kind = kind;
    ev.start = start;
    ev.duration = duration;
    ev.magnitude = magnitude;
    return ev;
}

TEST(FaultEvent, ActiveWindow)
{
    FaultEvent ev = event(0, FaultKind::Outage, 10.0, 5.0);
    EXPECT_FALSE(ev.activeAt(9.99));
    EXPECT_TRUE(ev.activeAt(10.0));
    EXPECT_TRUE(ev.activeAt(14.99));
    EXPECT_FALSE(ev.activeAt(15.0));

    FaultEvent forever = event(0, FaultKind::Outage, 10.0, 0.0);
    EXPECT_FALSE(forever.activeAt(9.0));
    EXPECT_TRUE(forever.activeAt(1e9));
}

TEST(FaultInjector, OutageEpisodeTogglesAvailability)
{
    StorageSystem system = twoDeviceSystem();
    FaultInjectorConfig config;
    config.schedule.push_back(event(1, FaultKind::Outage, 10.0, 5.0));
    FaultInjector injector(system, config);
    system.attachFaultInjector(&injector);

    injector.advanceTo(5.0);
    EXPECT_TRUE(system.device(1).available());
    injector.advanceTo(12.0);
    EXPECT_TRUE(system.device(1).offline());
    EXPECT_TRUE(system.device(0).available()); // other device untouched
    injector.advanceTo(20.0);
    EXPECT_TRUE(system.device(1).available());
}

TEST(FaultInjector, PermanentOutageNeverRecovers)
{
    StorageSystem system = twoDeviceSystem();
    FaultInjectorConfig config;
    config.schedule.push_back(event(0, FaultKind::Outage, 10.0, 0.0));
    FaultInjector injector(system, config);
    injector.advanceTo(1e7);
    EXPECT_TRUE(system.device(0).offline());
}

TEST(FaultInjector, DegradationScalesEffectiveBandwidth)
{
    StorageSystem system = twoDeviceSystem();
    FaultInjectorConfig config;
    config.schedule.push_back(
        event(0, FaultKind::Degradation, 10.0, 10.0, 0.25));
    FaultInjector injector(system, config);

    injector.advanceTo(0.0);
    double healthy = system.device(0).effectiveBandwidth(true, 0.0);
    injector.advanceTo(12.0);
    EXPECT_TRUE(system.device(0).degraded());
    double degraded = system.device(0).effectiveBandwidth(true, 12.0);
    EXPECT_NEAR(degraded, healthy * 0.25, healthy * 1e-9);
    injector.advanceTo(25.0);
    EXPECT_FALSE(system.device(0).degraded());
}

TEST(FaultInjector, OverlappingDegradationsTakeTheWorst)
{
    StorageSystem system = twoDeviceSystem();
    FaultInjectorConfig config;
    config.schedule.push_back(
        event(0, FaultKind::Degradation, 0.0, 100.0, 0.5));
    config.schedule.push_back(
        event(0, FaultKind::Degradation, 10.0, 10.0, 0.2));
    FaultInjector injector(system, config);
    injector.advanceTo(15.0);
    EXPECT_DOUBLE_EQ(system.device(0).healthFactor(), 0.2);
    injector.advanceTo(30.0);
    EXPECT_DOUBLE_EQ(system.device(0).healthFactor(), 0.5);
}

TEST(FaultInjector, TransientErrorsFailAccesses)
{
    StorageSystem system = twoDeviceSystem();
    FileId file = system.addFile("f", 1 << 20, 0);
    FaultInjectorConfig config;
    // Probability 1: every access during the episode fails.
    config.schedule.push_back(
        event(0, FaultKind::TransientErrors, 0.0, 0.0, 1.0));
    FaultInjector injector(system, config);
    system.attachFaultInjector(&injector);

    AccessObservation obs = system.access(file, 1 << 16, true);
    EXPECT_TRUE(obs.failed);
    EXPECT_DOUBLE_EQ(obs.throughput, 0.0);
    EXPECT_GT(obs.duration(), 0.0); // error latency was charged
    EXPECT_EQ(system.device(0).failedAccessCount(), 1u);
    EXPECT_EQ(injector.injectedFailures(), 1u);
}

TEST(FaultInjector, FailedAccessesCollapseMeasuredMean)
{
    StorageSystem system = twoDeviceSystem();
    FileId file = system.addFile("f", 1 << 20, 0);
    for (int i = 0; i < 4; ++i)
        system.access(file, 1 << 16, true);
    double healthy_mean = system.device(0).throughputStats().mean();
    ASSERT_GT(healthy_mean, 0.0);

    FaultInjector injector(system, {});
    injector.addEvent(
        event(0, FaultKind::TransientErrors, 0.0, 0.0, 1.0));
    system.attachFaultInjector(&injector);
    for (int i = 0; i < 12; ++i)
        system.access(file, 1 << 16, true);
    EXPECT_LT(system.device(0).throughputStats().mean(),
              healthy_mean / 2.0);
}

TEST(FaultInjector, AccessOnOfflineDeviceFails)
{
    StorageSystem system = twoDeviceSystem();
    FileId file = system.addFile("f", 1 << 20, 1);
    FaultInjector injector(system, {});
    injector.addEvent(event(1, FaultKind::Outage, 0.0, 0.0));
    system.attachFaultInjector(&injector);
    AccessObservation obs = system.access(file, 1 << 16, true);
    EXPECT_TRUE(obs.failed);
    EXPECT_DOUBLE_EQ(obs.throughput, 0.0);
}

TEST(FaultInjector, MoveOntoOfflineTargetFails)
{
    StorageSystem system = twoDeviceSystem();
    FileId file = system.addFile("f", 8 << 20, 0);
    FaultInjector injector(system, {});
    injector.addEvent(event(1, FaultKind::Outage, 0.0, 0.0));
    system.attachFaultInjector(&injector);

    MoveResult result = system.moveFile(file, 1);
    EXPECT_FALSE(result.moved);
    EXPECT_TRUE(result.failed);
    EXPECT_EQ(result.reason, MoveFail::TargetOffline);
    EXPECT_TRUE(moveFailRetryable(result.reason));
    EXPECT_EQ(system.location(file), 0u);
    EXPECT_EQ(system.abortedMoveCount(), 1u);
    // The reservation on the target must have been released.
    EXPECT_EQ(system.device(1).usedBytes(), 0u);
}

TEST(FaultInjector, MoveFromOfflineSourceFails)
{
    StorageSystem system = twoDeviceSystem();
    FileId file = system.addFile("f", 8 << 20, 0);
    FaultInjector injector(system, {});
    injector.addEvent(event(0, FaultKind::Outage, 0.0, 0.0));
    system.attachFaultInjector(&injector);

    MoveResult result = system.moveFileChunked(file, 1, 1 << 20);
    EXPECT_FALSE(result.moved);
    EXPECT_TRUE(result.failed);
    EXPECT_EQ(result.reason, MoveFail::SourceOffline);
    EXPECT_EQ(system.device(1).usedBytes(), 0u);
}

TEST(FaultInjector, ChunkedMoveAbortAccountsPartialBytes)
{
    StorageSystem system = twoDeviceSystem();
    FileId file = system.addFile("f", 64 << 20, 0);
    FaultInjector injector(system, {});
    // The target dies shortly into the transfer: some chunks land,
    // the rest abort.
    injector.addEvent(event(1, FaultKind::Outage, 0.005, 0.0));
    system.attachFaultInjector(&injector);

    MoveResult result = system.moveFileChunked(file, 1, 1 << 20);
    EXPECT_FALSE(result.moved);
    EXPECT_TRUE(result.failed);
    EXPECT_GT(result.bytesCopied, 0u);
    EXPECT_LT(result.bytesCopied, 64u << 20);
    EXPECT_EQ(system.abortedBytes(), result.bytesCopied);
    EXPECT_EQ(system.location(file), 0u);
    EXPECT_EQ(system.device(1).usedBytes(), 0u);
}

TEST(FaultInjector, TransitionHooksFire)
{
    StorageSystem system = twoDeviceSystem();
    FaultInjectorConfig config;
    config.schedule.push_back(event(0, FaultKind::Outage, 10.0, 5.0));
    FaultInjector injector(system, config);

    std::vector<std::pair<bool, double>> transitions;
    injector.onTransition(
        [&](const FaultEvent &ev, bool active, double now) {
            EXPECT_EQ(ev.device, 0u);
            transitions.emplace_back(active, now);
        });
    injector.advanceTo(5.0);
    EXPECT_TRUE(transitions.empty());
    injector.advanceTo(11.0);
    injector.advanceTo(12.0); // no new transition
    injector.advanceTo(16.0);
    ASSERT_EQ(transitions.size(), 2u);
    EXPECT_TRUE(transitions[0].first);
    EXPECT_FALSE(transitions[1].first);
}

TEST(FaultInjector, AdvanceIsMonotonic)
{
    StorageSystem system = twoDeviceSystem();
    FaultInjectorConfig config;
    config.schedule.push_back(event(0, FaultKind::Outage, 10.0, 0.0));
    FaultInjector injector(system, config);
    injector.advanceTo(20.0);
    EXPECT_TRUE(system.device(0).offline());
    // Going "back in time" must not resurrect the device.
    injector.advanceTo(5.0);
    EXPECT_TRUE(system.device(0).offline());
}

TEST(FaultInjector, SameSeedSameFailures)
{
    auto run = [](uint64_t seed) {
        StorageSystem system;
        system.addDevice(quietDevice("a"));
        FileId file = system.addFile("f", 1 << 20, 0);
        FaultInjectorConfig config;
        config.seed = seed;
        config.schedule.push_back(
            event(0, FaultKind::TransientErrors, 0.0, 0.0, 0.3));
        FaultInjector injector(system, config);
        system.attachFaultInjector(&injector);
        std::vector<bool> outcomes;
        for (int i = 0; i < 64; ++i)
            outcomes.push_back(system.access(file, 1 << 12, true).failed);
        return outcomes;
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8)); // and the stream actually depends on it
}

TEST(FaultInjector, ErrorProbabilityReflectsActiveEpisode)
{
    // A certain-failure episode on device 1 over [10, 20): every access
    // there fails inside the window and none fails outside it.
    StorageSystem system = twoDeviceSystem();
    FaultInjectorConfig config;
    config.schedule.push_back(
        event(1, FaultKind::TransientErrors, 10.0, 10.0, 1.0));
    FaultInjector injector(system, config);
    injector.advanceTo(5.0);
    EXPECT_FALSE(injector.shouldFailAccess(1));
    injector.advanceTo(15.0);
    EXPECT_TRUE(injector.shouldFailAccess(1));
    EXPECT_FALSE(injector.shouldFailAccess(0));
    injector.advanceTo(25.0);
    EXPECT_FALSE(injector.shouldFailAccess(1));
    EXPECT_EQ(injector.injectedFailures(), 1u);
}

AccessObservation
observation(DeviceId device, double start = 100.0)
{
    AccessObservation obs;
    obs.file = 1;
    obs.device = device;
    obs.readBytes = 1 << 20;
    obs.startTime = start;
    obs.endTime = start + 0.5;
    obs.throughput = 2e6;
    return obs;
}

TEST(FaultInjector, TelemetryUntouchedWithoutActiveEpisode)
{
    StorageSystem system = twoDeviceSystem();
    FaultInjector injector(system, {});
    AccessObservation obs = observation(0);
    AccessObservation before = obs;
    bool duplicate = true;
    EXPECT_FALSE(injector.mutateTelemetry(obs, duplicate));
    EXPECT_FALSE(duplicate);
    EXPECT_DOUBLE_EQ(obs.startTime, before.startTime);
    EXPECT_DOUBLE_EQ(obs.endTime, before.endTime);
    EXPECT_DOUBLE_EQ(obs.throughput, before.throughput);
    EXPECT_EQ(injector.corruptedRecords(), 0u);
}

TEST(FaultInjector, StaleTelemetryShiftsTimestampsIntoThePast)
{
    StorageSystem system = twoDeviceSystem();
    FaultInjectorConfig config;
    config.schedule.push_back(
        event(0, FaultKind::StaleTelemetry, 0.0, 0.0, 300.0));
    FaultInjector injector(system, config);
    injector.advanceTo(100.0);
    AccessObservation obs = observation(0);
    bool duplicate = false;
    EXPECT_TRUE(injector.mutateTelemetry(obs, duplicate));
    EXPECT_DOUBLE_EQ(obs.startTime, 100.0 - 300.0);
    EXPECT_DOUBLE_EQ(obs.endTime, 100.5 - 300.0);
    // Duration and reward are untouched: only delivery was late.
    EXPECT_DOUBLE_EQ(obs.duration(), 0.5);
    EXPECT_DOUBLE_EQ(obs.throughput, 2e6);
    // The other device's telemetry is untouched.
    AccessObservation other = observation(1);
    EXPECT_FALSE(injector.mutateTelemetry(other, duplicate));
}

TEST(FaultInjector, ClockSkewShiftsTimestampsIntoTheFuture)
{
    StorageSystem system = twoDeviceSystem();
    FaultInjectorConfig config;
    config.schedule.push_back(
        event(1, FaultKind::ClockSkew, 50.0, 100.0, 7200.0));
    FaultInjector injector(system, config);
    injector.advanceTo(100.0);
    AccessObservation obs = observation(1);
    bool duplicate = false;
    EXPECT_TRUE(injector.mutateTelemetry(obs, duplicate));
    EXPECT_DOUBLE_EQ(obs.startTime, 100.0 + 7200.0);
    EXPECT_DOUBLE_EQ(obs.endTime, 100.5 + 7200.0);
    // Outside the episode window the shift is gone.
    injector.advanceTo(200.0);
    AccessObservation later = observation(1, 200.0);
    EXPECT_FALSE(injector.mutateTelemetry(later, duplicate));
    EXPECT_DOUBLE_EQ(later.startTime, 200.0);
}

TEST(FaultInjector, CorruptTelemetryIsSeededAndDeterministic)
{
    auto run = [](uint64_t seed) {
        StorageSystem system = twoDeviceSystem();
        FaultInjectorConfig config;
        config.seed = seed;
        config.schedule.push_back(
            event(0, FaultKind::CorruptTelemetry, 0.0, 0.0, 0.5));
        FaultInjector injector(system, config);
        injector.advanceTo(100.0);
        std::vector<double> throughputs;
        for (int i = 0; i < 64; ++i) {
            AccessObservation obs = observation(0);
            bool duplicate = false;
            injector.mutateTelemetry(obs, duplicate);
            throughputs.push_back(duplicate ? -42.0 : obs.throughput);
        }
        return std::make_pair(throughputs, injector.corruptedRecords());
    };
    auto a = run(7);
    auto b = run(7);
    EXPECT_EQ(a.first.size(), b.first.size());
    for (size_t i = 0; i < a.first.size(); ++i) {
        if (std::isnan(a.first[i]))
            EXPECT_TRUE(std::isnan(b.first[i])) << i;
        else
            EXPECT_DOUBLE_EQ(a.first[i], b.first[i]) << i;
    }
    EXPECT_EQ(a.second, b.second);
    EXPECT_GT(a.second, 0u); // p = 0.5 over 64 draws corrupts some
    EXPECT_LT(a.second, 64u);
    EXPECT_NE(a.second, run(8).second); // and the seed matters
}

TEST(FaultInjector, CorruptTelemetryConsumesNoRandomnessWhenInactive)
{
    // Mutating telemetry outside any corrupt episode must leave the
    // RNG untouched — the stream the transient-error draws see is
    // byte-identical with and without the telemetry path.
    StorageSystem system = twoDeviceSystem();
    FaultInjectorConfig config;
    config.schedule.push_back(
        event(0, FaultKind::CorruptTelemetry, 1000.0, 10.0, 1.0));
    config.schedule.push_back(
        event(0, FaultKind::TransientErrors, 0.0, 0.0, 0.5));
    FaultInjector injector(system, config);
    injector.advanceTo(100.0); // corrupt episode not yet active
    for (int i = 0; i < 16; ++i) {
        AccessObservation obs = observation(0);
        bool duplicate = false;
        EXPECT_FALSE(injector.mutateTelemetry(obs, duplicate));
    }
    std::vector<bool> with_mutation;
    for (int i = 0; i < 32; ++i)
        with_mutation.push_back(injector.shouldFailAccess(0));

    FaultInjector fresh(system, config);
    fresh.advanceTo(100.0);
    std::vector<bool> without_mutation;
    for (int i = 0; i < 32; ++i)
        without_mutation.push_back(fresh.shouldFailAccess(0));
    EXPECT_EQ(with_mutation, without_mutation);
}

TEST(FaultInjector, TelemetryFaultStateRoundTrips)
{
    StorageSystem system = twoDeviceSystem();
    FaultInjectorConfig config;
    config.schedule.push_back(
        event(0, FaultKind::CorruptTelemetry, 0.0, 0.0, 0.5));
    config.schedule.push_back(
        event(0, FaultKind::StaleTelemetry, 0.0, 0.0, 60.0));

    FaultInjector a(system, config);
    a.advanceTo(100.0);
    bool duplicate = false;
    for (int i = 0; i < 16; ++i) {
        AccessObservation obs = observation(0);
        a.mutateTelemetry(obs, duplicate);
    }
    std::ostringstream os;
    util::StateWriter w(os);
    a.saveState(w);

    StorageSystem system_b = twoDeviceSystem();
    FaultInjector b(system_b, config);
    std::istringstream is(os.str());
    util::StateReader r(is);
    b.loadState(r);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(b.corruptedRecords(), a.corruptedRecords());

    // The restored stream continues exactly where the original one is.
    for (int i = 0; i < 32; ++i) {
        AccessObservation oa = observation(0);
        AccessObservation ob = observation(0);
        bool da = false, db = false;
        a.mutateTelemetry(oa, da);
        b.mutateTelemetry(ob, db);
        EXPECT_EQ(da, db) << i;
        if (std::isnan(oa.throughput))
            EXPECT_TRUE(std::isnan(ob.throughput)) << i;
        else
            EXPECT_DOUBLE_EQ(oa.throughput, ob.throughput) << i;
        EXPECT_DOUBLE_EQ(oa.endTime, ob.endTime) << i;
        EXPECT_EQ(oa.readBytes, ob.readBytes) << i;
    }
}

TEST(FaultInjectorDeathTest, RejectsBadTelemetryEvents)
{
    StorageSystem system = twoDeviceSystem();
    FaultInjector injector(system, {});
    EXPECT_DEATH(injector.addEvent(
                     event(0, FaultKind::CorruptTelemetry, 0, 0, 1.5)),
                 "corruption probability");
    EXPECT_DEATH(injector.addEvent(
                     event(0, FaultKind::StaleTelemetry, 0, 0, 0.0)),
                 "must be positive");
    EXPECT_DEATH(injector.addEvent(
                     event(0, FaultKind::ClockSkew, 0, 0, -5.0)),
                 "must be positive");
}

TEST(FaultInjectorDeathTest, RejectsBadEvents)
{
    StorageSystem system = twoDeviceSystem();
    FaultInjector injector(system, {});
    EXPECT_DEATH(injector.addEvent(
                     event(9, FaultKind::Outage, 0.0, 0.0)),
                 "device");
    EXPECT_DEATH(injector.addEvent(
                     event(0, FaultKind::TransientErrors, 0, 0, 1.5)),
                 "probability");
    EXPECT_DEATH(injector.addEvent(
                     event(0, FaultKind::Degradation, 0, 0, 0.0)),
                 "factor");
    EXPECT_DEATH(injector.addEvent(
                     event(0, FaultKind::Degradation, 0, 0, 1.5)),
                 "factor");
}

TEST(FaultInjectorDeathTest, DeviceValidation)
{
    StorageSystem system = twoDeviceSystem();
    StorageDevice &dev = system.device(0);
    EXPECT_DEATH(dev.setHealthFactor(0.0), "health");
    EXPECT_DEATH(dev.setHealthFactor(1.5), "health");
}

} // namespace
} // namespace storage
} // namespace geo
