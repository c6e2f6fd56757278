/**
 * @file
 * The performance record exchanged between the target system's agents
 * and Geomancy, and persisted in the ReplayDB.
 *
 * Fields mirror the paper's six live-experiment features (Section V-D):
 * bytes read/written, open/close timestamps (seconds + milliseconds),
 * the file's encoded ID and the storage-device ID — plus the measured
 * throughput that serves as the reinforcement reward.
 */

#ifndef GEO_CORE_PERF_RECORD_HH
#define GEO_CORE_PERF_RECORD_HH

#include <array>
#include <cstdint>

#include "storage/system.hh"

namespace geo {
namespace core {

/** Number of live-experiment features (the paper's Z = 6). */
constexpr size_t kLiveFeatureCount = 6;

/**
 * One access performance sample.
 */
struct PerfRecord
{
    int64_t id = 0;          ///< ReplayDB row id (0 until stored)
    storage::FileId file = 0;
    storage::DeviceId device = 0;
    uint64_t rb = 0;         ///< bytes read
    uint64_t wb = 0;         ///< bytes written
    int64_t ots = 0;         ///< open timestamp seconds
    int64_t otms = 0;        ///< open timestamp milliseconds
    int64_t cts = 0;         ///< close timestamp seconds
    int64_t ctms = 0;        ///< close timestamp milliseconds
    double throughput = 0.0; ///< measured bytes/s (the reward)
    /** The access errored (fault injection): throughput is zero and
     *  the sample teaches the model that this device is dying. */
    bool failed = false;

    /**
     * The Z = 6 feature vector [rb, wb, ots, cts, fid, fsid], with the
     * millisecond parts folded into fractional timestamps.
     */
    std::array<double, kLiveFeatureCount> features() const;

    /** Same features with the device column replaced by `candidate`. */
    std::array<double, kLiveFeatureCount>
    featuresAt(storage::DeviceId candidate) const;

    /** Build a record from a simulator observation. */
    static PerfRecord fromObservation(
        const storage::AccessObservation &obs);
};

} // namespace core
} // namespace geo

#endif // GEO_CORE_PERF_RECORD_HH
