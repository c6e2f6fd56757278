/**
 * @file
 * Black-box flight recorder: an always-on, lock-light bounded ring of
 * recent pipeline events that can be dumped to disk from contexts
 * where nothing else survives — fatal signals, fault-injector kill
 * points, safe-mode entry.
 *
 * Recording discipline mirrors the metric registry: record() is one
 * relaxed fetch_add plus a handful of relaxed stores into a fixed-size
 * slot array — no locks, no allocation, no clock reads (callers pass
 * the sim timestamp they already have). The ring overwrites oldest
 * entries, so the recorder always holds the most recent kCapacity
 * events leading up to whatever went wrong.
 *
 * Dumping is best-effort and usable from a signal handler: dumpTo()
 * formats each slot with snprintf into a stack buffer and write(2)s
 * it — no allocation, no locks. Entries a racing writer is mid-way
 * through are detected via a per-slot sequence stamp and skipped
 * rather than emitted torn.
 *
 * The dump format ("geo-flight-1") is one header line followed by one
 * space-separated line per event, oldest first:
 *
 *   geo-flight-1 recorded=<total> capacity=<n>
 *   <seq> <sim-time> <kind> <a0> <a1> <a2>
 *
 * Argument meaning per kind (0 when unused):
 *   phase_begin/phase_end     a0=cycle a1=phase(0 monitor, 1 train,
 *                             2 propose, 3 migrate)
 *   quarantine_reject         a0=reason(QuarantineReason) a1=device
 *   breaker_trip              a0=device a1=failure streak
 *   safe_mode_enter/exit      a0=cycle
 *   layout_hold               a0=cycle a1=admitted a2=quarantined
 *   checkpoint_write          a0=cycle a1=payload bytes
 *   crash_point               a0=CrashPoint a1=cycle
 *   train_diverged            a0=epochs run
 *   moves_abandoned           a0=moves
 *   restore                   a0=cycle
 */

#ifndef GEO_UTIL_FLIGHT_RECORDER_HH
#define GEO_UTIL_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace geo {
namespace util {

/** What happened (see the file comment for the argument meanings). */
enum class FlightKind : uint8_t {
    PhaseBegin,
    PhaseEnd,
    QuarantineReject,
    BreakerTrip,
    SafeModeEnter,
    SafeModeExit,
    LayoutHold,
    CheckpointWrite,
    CrashPoint,
    TrainDiverged,
    MovesAbandoned,
    Restore,
};

constexpr size_t kFlightKindCount = 12;

/** Stable lowercase name used in the dump ("phase_begin", ...). */
const char *flightKindName(FlightKind kind);

/** One recorded event (POD; copied out by snapshot()). */
struct FlightEvent
{
    uint64_t seq = 0;
    double sim = 0.0; ///< sim-clock seconds (0 = no clock at hand)
    uint64_t a0 = 0;
    uint64_t a1 = 0;
    uint64_t a2 = 0;
    FlightKind kind = FlightKind::PhaseBegin;
};

/**
 * The process-wide event ring. Always on; recording costs a few
 * relaxed atomics whether or not anyone ever dumps it.
 */
class FlightRecorder
{
  public:
    static constexpr size_t kCapacity = 4096;

    /** Record one event. Safe from any thread; never blocks. */
    void record(FlightKind kind, double sim_time, uint64_t a0 = 0,
                uint64_t a1 = 0, uint64_t a2 = 0);

    /** Total events ever recorded (>= size()). */
    uint64_t recorded() const
    {
        return next_.load(std::memory_order_relaxed);
    }

    /** Events currently held (min(recorded, kCapacity)). */
    size_t size() const;

    /** Copy the ring out, oldest first, skipping torn slots. Not for
     *  signal context (allocates) — use dumpTo() there. */
    std::vector<FlightEvent> snapshot() const;

    /** Forget everything recorded so far (tests / run boundaries). */
    void clear();

    /**
     * Register the directory crashDump() writes into. The path is
     * copied into a fixed internal buffer so later dumps need no
     * allocation. An empty string disables crash dumps.
     */
    void setDumpDir(const std::string &dir);

    bool dumpDirSet() const { return dumpDir_[0] != '\0'; }

    /**
     * Write the ring to `<dump-dir>/flight-<tag>-<pid>.txt`.
     * Best-effort and async-signal-friendly (open/snprintf/write
     * only). @return false when no directory is set or I/O failed.
     */
    bool crashDump(const char *tag);

    /** Serialize the ring to an open descriptor (see crashDump). */
    bool dumpTo(int fd) const;

    /**
     * Install SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL handlers that dump
     * the global ring (and crash-flush the global TraceCollector),
     * then re-raise with the default disposition so the process still
     * dies with the original signal.
     */
    static void installSignalHandlers();

    /** The process-wide recorder every component records into. */
    static FlightRecorder &global();

  private:
    struct Slot
    {
        /** 0 = never written; otherwise seq+1 of the event it holds.
         *  Stored last (release) so readers can detect torn writes. */
        std::atomic<uint64_t> stamp{0};
        /** Payload fields are relaxed atomics: once the ring wraps,
         *  two writers whose sequence numbers are kCapacity apart can
         *  land on the same slot concurrently, and readers race with
         *  writers by design. The stamp protocol already discards
         *  mixed payloads; the atomics make the accesses themselves
         *  defined behavior. */
        std::atomic<double> sim{0.0};
        std::atomic<uint64_t> a0{0};
        std::atomic<uint64_t> a1{0};
        std::atomic<uint64_t> a2{0};
        std::atomic<FlightKind> kind{FlightKind::PhaseBegin};
    };

    std::atomic<uint64_t> next_{0};
    Slot slots_[kCapacity];
    char dumpDir_[512] = {0};
};

} // namespace util
} // namespace geo

#endif // GEO_UTIL_FLIGHT_RECORDER_HH
