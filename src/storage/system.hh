/**
 * @file
 * The target storage system: devices, files, accesses and migrations.
 *
 * This is the substrate Geomancy optimizes. It exposes exactly what the
 * paper's target system exposes to Geomancy: per-access performance
 * measurements (consumed by monitoring agents) and a move-file command
 * (issued by control agents). Migrations pay a transfer cost limited by
 * source read bandwidth, destination write bandwidth and the network,
 * and load both devices while in flight, so move overhead is part of
 * every experiment (paper Sections V, VIII).
 */

#ifndef GEO_STORAGE_SYSTEM_HH
#define GEO_STORAGE_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "storage/device.hh"
#include "util/sim_clock.hh"

namespace geo {
namespace storage {

class FaultInjector;

/** Integer id of a file within a StorageSystem. */
using FileId = uint64_t;

/** A stored file. */
struct FileObject
{
    FileId id = 0;
    std::string name;
    uint64_t sizeBytes = 0;
    DeviceId location = 0;
};

/** A completed access, as observed by a monitoring agent. */
struct AccessObservation
{
    FileId file = 0;
    DeviceId device = 0;
    uint64_t readBytes = 0;
    uint64_t writtenBytes = 0;
    double startTime = 0.0; ///< seconds
    double endTime = 0.0;   ///< seconds
    double throughput = 0.0; ///< bytes/s
    bool failed = false;     ///< the access errored (zero throughput)

    double duration() const { return endTime - startTime; }
};

/** Why a migration did not complete. */
enum class MoveFail {
    None,           ///< the move succeeded
    SameDevice,     ///< no-op: target is the current location
    NoSuchDevice,   ///< target id out of range
    NotWritable,    ///< target mount is read-only
    CapacityFull,   ///< target lacks free capacity
    SourceOffline,  ///< source device unavailable (data unreachable)
    TargetOffline,  ///< target device unavailable
    TransientFault, ///< injected I/O error aborted the transfer
};

/** Printable name of a move-failure reason. */
const char *moveFailName(MoveFail reason);

/** Whether a failure reason is fault-class (worth retrying) rather
 *  than validity-class (the request itself was invalid). */
bool moveFailRetryable(MoveFail reason);

/** Result of a file migration. */
struct MoveResult
{
    bool moved = false;      ///< false when src == dst or move invalid
    /** The move was valid but a fault aborted it mid-transfer. */
    bool failed = false;
    double seconds = 0.0;    ///< transfer duration charged to the clock
    uint64_t bytes = 0;
    /** Bytes copied before a fault aborted the transfer (the wasted
     *  work is still accounted as busy time on both devices). */
    uint64_t bytesCopied = 0;
    DeviceId from = 0;
    DeviceId to = 0;
    MoveFail reason = MoveFail::None;
};

/** System-wide configuration. */
struct SystemConfig
{
    /** Shared network bandwidth cap for migrations, bytes/s
     *  (10 Gbit Ethernet by default, as on Bluesky). */
    double networkBandwidth = 1.25e9;
    /** Whether migration time advances the global clock (foreground)
     *  or only loads the devices (background copy). The paper moves
     *  data in the background. */
    bool backgroundMoves = true;
};

/**
 * A set of devices plus a file -> device layout.
 */
class StorageSystem
{
  public:
    explicit StorageSystem(SystemConfig config = {});

    /** Add a device; returns its id (dense, starting at 0). */
    DeviceId addDevice(const DeviceConfig &config);

    size_t deviceCount() const { return devices_.size(); }
    StorageDevice &device(DeviceId id);
    const StorageDevice &device(DeviceId id) const;

    /** Device id by mount name; panics if absent. */
    DeviceId deviceByName(const std::string &name) const;

    /** All device ids. */
    std::vector<DeviceId> deviceIds() const;

    /**
     * Create a file on a device (reserves capacity).
     * @return the new file's id; panics if the device is full.
     */
    FileId addFile(const std::string &name, uint64_t size_bytes,
                   DeviceId location);

    size_t fileCount() const { return files_.size(); }
    const FileObject &file(FileId id) const;
    std::vector<FileId> fileIds() const;

    /** Current location of a file. */
    DeviceId location(FileId id) const;

    /**
     * Perform a read or write of `bytes` on a file at its current
     * location, advancing the simulated clock by the access duration.
     */
    AccessObservation access(FileId id, uint64_t bytes, bool is_read);

    /**
     * Perform an access from a *concurrent* client: the device is
     * loaded and the observation reported, but the global clock does
     * not advance (the access overlaps whatever the primary workload
     * is doing). This is how a second workload sharing the mounts is
     * modeled (paper experiment 3).
     */
    AccessObservation accessConcurrent(FileId id, uint64_t bytes,
                                       bool is_read);

    /**
     * Move a file to `target` in one piece: moveFileChunked with a
     * single chunk.
     *
     * Pays size / min(src read bw, dst write bw, network bw) seconds,
     * priced when the move starts; loads both devices; advances the
     * clock unless backgroundMoves. Fails (moved = false) when the
     * target is the current location, is not writable, or lacks
     * capacity; an offline device or a transient fault aborts it
     * (failed = true, nothing copied, logged as a warning). An armed
     * mid-migration kill point fires after the copy is paid for, before
     * the file changes location.
     */
    MoveResult moveFile(FileId id, DeviceId target);

    /**
     * Move a file incrementally in chunks of at most `chunk_bytes`
     * (the paper's planned refinement for files under parallel
     * access). Each chunk is costed at the bandwidth in effect when
     * it starts, so contention changes mid-migration are reflected;
     * the file stays readable at the source until the last chunk.
     *
     * @return aggregate result; `seconds` sums all chunk transfers.
     */
    MoveResult moveFileChunked(FileId id, DeviceId target,
                               uint64_t chunk_bytes);

    /** Simulated clock (advanced by accesses and foreground moves). */
    SimClock &clock() { return clock_; }
    const SimClock &clock() const { return clock_; }

    /** Total bytes moved by migrations so far. */
    uint64_t migratedBytes() const { return migratedBytes_; }

    /** Number of successful migrations so far. */
    uint64_t migrationCount() const { return migrationCount_; }

    /** Migrations aborted by faults so far. */
    uint64_t abortedMoveCount() const { return abortedMoves_; }

    /** Bytes copied by migrations that were then aborted (wasted). */
    uint64_t abortedBytes() const { return abortedBytes_; }

    /**
     * Attach a fault injector: from now on the injector's schedule is
     * re-evaluated before every access and migration chunk, and its
     * transient-error stream can fail individual operations. Pass
     * nullptr to detach. The injector must outlive the attachment.
     */
    void attachFaultInjector(FaultInjector *injector);

    FaultInjector *faultInjector() { return injector_; }

    /** Register an observer called after every access. */
    void onAccess(std::function<void(const AccessObservation &)> observer);

    /** Register an observer called after every successful move. */
    void onMove(std::function<void(const MoveResult &)> observer);

    /** Layout snapshot: file id -> device id. */
    std::map<FileId, DeviceId> layout() const;

    /** Per-device count of files currently placed there. */
    std::vector<size_t> filesPerDevice() const;

    /**
     * Serialize the dynamic world state: clock, file layout, every
     * device's mutable state and the migration totals. Topology
     * (devices, files, observers, injector attachment) is not saved —
     * restore into a system built by the same construction code.
     */
    void saveState(util::StateWriter &w) const;
    void loadState(util::StateReader &r);

  private:
    /** The body of access() and accessConcurrent(): only a primary
     *  access (`advance_clock`) moves the simulated clock. */
    AccessObservation serve(FileId id, uint64_t bytes, bool is_read,
                            bool advance_clock);

    SystemConfig config_;
    std::vector<StorageDevice> devices_;
    std::vector<FileObject> files_; ///< index = FileId
    SimClock clock_;
    FaultInjector *injector_ = nullptr;
    uint64_t migratedBytes_ = 0;
    uint64_t migrationCount_ = 0;
    uint64_t abortedMoves_ = 0;
    uint64_t abortedBytes_ = 0;
    std::vector<std::function<void(const AccessObservation &)>>
        accessObservers_;
    std::vector<std::function<void(const MoveResult &)>> moveObservers_;
};

} // namespace storage
} // namespace geo

#endif // GEO_STORAGE_SYSTEM_HH
