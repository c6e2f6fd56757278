/**
 * @file
 * Seeded, scriptable fault injection for the simulated testbed.
 *
 * The paper only ever runs Geomancy on a healthy Bluesky node; real
 * storage misbehaves. The injector drives three per-device fault
 * classes off a schedule of timed events:
 *
 *  - transient I/O errors: each access fails independently with a
 *    configured probability while the episode is active (flaky cable,
 *    controller resets);
 *  - bandwidth degradation: the device serves at a fraction of its
 *    nominal bandwidth for the duration (RAID rebuild, firmware
 *    throttling);
 *  - outages: the device is offline — every access and every migration
 *    touching it fails — for an interval or permanently (dead mount).
 *
 * The schedule is evaluated against the simulated clock: the owning
 * StorageSystem calls advanceTo() before every access and migration
 * chunk, so health transitions land exactly where the schedule puts
 * them. All randomness (the transient-error draws) comes from one
 * seeded generator, so a fault run is exactly reproducible.
 */

#ifndef GEO_STORAGE_FAULT_INJECTOR_HH
#define GEO_STORAGE_FAULT_INJECTOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "storage/device.hh"
#include "util/metrics.hh"
#include "util/random.hh"
#include "util/state_io.hh"

namespace geo {
namespace storage {

class StorageSystem;
struct AccessObservation;

/** The fault classes the injector can produce.
 *
 *  The first three corrupt *reality* (the device misbehaves); the
 *  telemetry kinds corrupt only what the monitoring agents *see* —
 *  the ground-truth experiment series stays clean, which is exactly
 *  what makes them the right fuel for the quarantine layer. */
enum class FaultKind {
    TransientErrors,  ///< per-access failure probability (magnitude)
    Degradation,      ///< bandwidth scaled by magnitude in (0, 1]
    Outage,           ///< device offline; magnitude ignored
    CorruptTelemetry, ///< each observation mangled with prob. magnitude
    StaleTelemetry,   ///< observations delivered magnitude seconds late
    ClockSkew,        ///< sensor clock magnitude seconds in the future
};

/** Printable name of a fault kind. */
const char *faultKindName(FaultKind kind);

/**
 * Process-level kill points inside a decision cycle.
 *
 * Unlike the per-device fault classes above, a crash point kills the
 * whole Geomancy process (std::_Exit, no cleanup) at a well-defined
 * spot in the pipeline, so the checkpoint/restore path can be tested
 * against every phase a real crash could interrupt.
 */
enum class CrashPoint {
    None = 0,
    AfterTrain,   ///< right after the DRL engine retrained
    AfterPropose, ///< after moves were proposed and admitted
    MidMigration, ///< inside a chunked transfer, first chunk copied
    AfterCommit,  ///< right after a checkpoint was committed
};

/** Printable name of a crash point ("after-train", ...). */
const char *crashPointName(CrashPoint point);

/** Parse a crash-point name; false when `text` names none of them. */
bool parseCrashPoint(const std::string &text, CrashPoint &out);

/** One scheduled fault episode on one device. */
struct FaultEvent
{
    DeviceId device = 0;
    FaultKind kind = FaultKind::TransientErrors;
    double start = 0.0;    ///< simulated seconds
    /** Episode length in seconds; <= 0 means permanent. */
    double duration = 0.0;
    /** TransientErrors: failure probability per access in [0, 1].
     *  Degradation: bandwidth factor in (0, 1]. Outage: unused. */
    double magnitude = 0.0;

    /** Whether this event is active at time `at`. */
    bool activeAt(double at) const
    {
        return at >= start && (duration <= 0.0 || at < start + duration);
    }
};

/** Injector configuration. */
struct FaultInjectorConfig
{
    /** Seed of the transient-error draw stream. Thread this off the
     *  experiment master seed so fault runs are reproducible. */
    uint64_t seed = 99;
    std::vector<FaultEvent> schedule;
};

/**
 * Applies a fault schedule to the devices of one StorageSystem.
 */
class FaultInjector
{
  public:
    /** Callback fired when an event becomes active or inactive. */
    using TransitionHook =
        std::function<void(const FaultEvent &, bool active, double now)>;

    /**
     * @param system the system whose devices are driven (must outlive
     *        the injector; attach with StorageSystem::attachFaultInjector).
     */
    FaultInjector(StorageSystem &system, FaultInjectorConfig config = {});

    /** Add an event mid-run (the scriptable path used by benches). */
    void addEvent(const FaultEvent &event);

    /** Register a transition observer (e.g. to log into a ReplayDb). */
    void onTransition(TransitionHook hook);

    /**
     * Re-evaluate the schedule at time `now` and push the resulting
     * health state (offline flag, bandwidth factor) onto each device.
     * Called by the StorageSystem before accesses and migration chunks.
     */
    void advanceTo(double now);

    /**
     * Draw the transient-error outcome for one access on `device` at
     * the injector's current state. Consumes randomness only when an
     * error episode is active on that device.
     */
    bool shouldFailAccess(DeviceId device);

    /**
     * Apply any active telemetry faults to one observation, in place:
     * StaleTelemetry shifts its timestamps into the past, ClockSkew
     * into the future, and CorruptTelemetry mangles one field (NaN or
     * negative throughput, absurd byte counts, negative duration,
     * far-future close time) or asks the caller to deliver the record
     * twice, with per-episode probability. Randomness is consumed only
     * while a CorruptTelemetry episode is active on `obs.device`, so
     * clean runs stay byte-identical. @return true when `obs` changed.
     */
    bool mutateTelemetry(AccessObservation &obs, bool &emit_duplicate);

    /** Transient failures injected so far (outages not counted). */
    uint64_t injectedFailures() const { return injectedFailures_; }

    /** Observations mangled or duplicated by CorruptTelemetry. */
    uint64_t corruptedRecords() const { return corruptedRecords_; }

    const std::vector<FaultEvent> &schedule() const { return schedule_; }

    /**
     * Arm a kill point: the process dies (exit code
     * util::kCrashExitCode, no cleanup) the first time `point` is
     * reached in decision cycle >= `cycle`. The ">=" makes arming
     * robust against cycles that skip a phase (e.g. no moves
     * proposed): the crash fires at the next opportunity.
     */
    void armCrash(CrashPoint point, uint64_t cycle);

    /** Tell the injector which decision cycle is running. */
    void notifyCycle(uint64_t cycle) { currentCycle_ = cycle; }

    /**
     * Kill the process if `point` is armed and due. Called by the
     * pipeline at each kill point; a no-op when disarmed.
     */
    void maybeCrash(CrashPoint point);

    /**
     * Serialize the dynamic injector state (clock cursor, error RNG,
     * per-event active flags, failure counter). The schedule and any
     * armed crash are configuration and are not saved.
     */
    void saveState(util::StateWriter &w) const;
    void loadState(util::StateReader &r);

  private:
    StorageSystem &system_;
    std::vector<FaultEvent> schedule_;
    std::vector<bool> wasActive_; ///< parallel to schedule_
    std::vector<TransitionHook> hooks_;
    Rng rng_;
    double now_ = 0.0;
    std::vector<double> errorProb_;   ///< per device, current state
    std::vector<double> corruptProb_; ///< per device, current state
    std::vector<double> staleShift_;  ///< seconds into the past
    std::vector<double> skewShift_;   ///< seconds into the future
    uint64_t injectedFailures_ = 0;
    uint64_t corruptedRecords_ = 0;
    util::Counter *injectedFailuresMetric_; ///< registry mirror
    util::Counter *corruptedRecordsMetric_; ///< registry mirror

    // Kill-point arming (process-local; never checkpointed).
    CrashPoint armedPoint_ = CrashPoint::None;
    uint64_t armedCycle_ = 0;
    uint64_t currentCycle_ = 0;

    void applyState(double now);
};

} // namespace storage
} // namespace geo

#endif // GEO_STORAGE_FAULT_INJECTOR_HH
