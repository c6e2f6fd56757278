/**
 * @file
 * Crash-safe checkpoint files for the whole Geomancy pipeline.
 *
 * A checkpoint is one file:
 *
 *     geo-ckpt-1 cycle=<n> bytes=<len> crc32=<8 hex>\n
 *     <len bytes of StateWriter payload>
 *
 * The header carries the decision cycle the snapshot was cut at, the
 * exact payload length and a zlib-compatible CRC32 over the payload.
 * Files are written atomically (temp file in the same directory,
 * fsync, rename), so a crash mid-write leaves either the previous
 * checkpoint or none — never a torn one. Reads validate magic, length
 * and CRC before handing the payload to StateReader; a corrupt file
 * is rejected (counted in `checkpoint.crc_rejected`) and loadLatest()
 * falls back to the next-older snapshot.
 *
 * The manager keeps the newest `keep` snapshots and prunes the rest,
 * so the fallback window survives a checkpoint that was committed but
 * whose producing process then corrupted the world before dying.
 */

#ifndef GEO_CORE_CHECKPOINT_HH
#define GEO_CORE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/metrics.hh"

namespace geo {
namespace core {

/** Checkpoint directory policy. */
struct CheckpointManagerConfig
{
    /** Directory snapshots live in (created if missing). */
    std::string dir = "checkpoints";
    /** Newest snapshots retained; older ones are pruned on write. */
    size_t keep = 2;
};

/** Parsed checkpoint header. */
struct CheckpointHeader
{
    uint64_t cycle = 0;
    uint64_t bytes = 0;
    uint32_t crc = 0;
};

/**
 * Writes, validates and enumerates checkpoint files in one directory.
 */
class CheckpointManager
{
  public:
    explicit CheckpointManager(CheckpointManagerConfig config = {});

    const std::string &dir() const { return config_.dir; }

    /** Path the snapshot for `cycle` is (or would be) stored at. */
    std::string pathFor(uint64_t cycle) const;

    /**
     * Atomically commit `payload` as the snapshot for `cycle`, then
     * prune snapshots beyond the retention window. @return false when
     * the directory cannot be created or the write fails (the previous
     * snapshot, if any, is untouched either way).
     */
    bool write(uint64_t cycle, const std::string &payload);

    /** Cycles with a snapshot file present, sorted ascending. */
    std::vector<uint64_t> availableCycles() const;

    /** Delete every snapshot (a fresh, non-resuming start does this
     *  so stale snapshots cannot be resumed later). */
    void clear();

    /**
     * Read and validate one checkpoint file: magic, payload length and
     * CRC32 must all match the header. @return false (and count
     * `checkpoint.crc_rejected`) on any mismatch.
     */
    static bool read(const std::string &path, CheckpointHeader &header,
                     std::string &payload);

    /**
     * Load the newest snapshot that validates, falling back across
     * older ones when the newest is corrupt. @param path_out the file
     * that validated, when non-null. @return false when no snapshot
     * validates.
     */
    bool loadLatest(CheckpointHeader &header, std::string &payload,
                    std::string *path_out = nullptr);

  private:
    CheckpointManagerConfig config_;
    util::Counter *writesMetric_;
    util::Counter *writeFailuresMetric_;
    util::Gauge *bytesMetric_;
    util::Histogram *writeMsMetric_;

    bool ensureDir() const;
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_CHECKPOINT_HH
