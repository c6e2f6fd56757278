/**
 * @file
 * One mounted storage device of the simulated testbed.
 *
 * Models asymmetric read/write bandwidth (the paper notes LRU struggles
 * with the RAID-5 mount's read/write imbalance), per-access fixed
 * latency, capacity accounting, external shared-user traffic, and
 * self-contention: a device that serves most of the workload (or a
 * migration) sees its effective bandwidth degrade, which is what makes
 * "cram everything onto file0" a losing strategy (paper Section VII).
 */

#ifndef GEO_STORAGE_DEVICE_HH
#define GEO_STORAGE_DEVICE_HH

#include <cstdint>
#include <string>

#include "storage/external_traffic.hh"
#include "util/state_io.hh"
#include "util/stats.hh"

namespace geo {
namespace storage {

/** Integer id of a device within a StorageSystem. */
using DeviceId = uint32_t;

/** Static description of a device. */
struct DeviceConfig
{
    std::string name;            ///< e.g. "file0"
    double readBandwidth = 1e9;  ///< bytes/s, uncontended
    double writeBandwidth = 1e9; ///< bytes/s, uncontended
    double accessLatency = 0.002;///< fixed per-access seconds
    uint64_t capacityBytes = 1ULL << 40;
    /** Self-contention time constant: how long recent busy time keeps
     *  loading the device (seconds). */
    double selfLoadTau = 20.0;
    /** Weight of self-contention in the effective-bandwidth divisor. */
    double selfLoadWeight = 1.0;
    bool writable = true;        ///< Action Checker validity input
    /** Seconds a failed access burns before the error surfaces (I/O
     *  timeout; charged to the clock like any other access). */
    double errorLatency = 0.05;
    ExternalTrafficConfig traffic;
};

/** Outcome of one simulated access on a device. */
struct DeviceAccess
{
    double duration = 0.0;   ///< seconds, including fixed latency
    double throughput = 0.0; ///< bytes/s over the whole access
    double loadFactor = 0.0; ///< total contention divisor - 1
    bool failed = false;     ///< the access errored (fault injection)
};

/**
 * A mounted storage device.
 */
class StorageDevice
{
  public:
    StorageDevice(DeviceId id, const DeviceConfig &config);

    DeviceId id() const { return id_; }
    const std::string &name() const { return config_.name; }
    const DeviceConfig &config() const { return config_; }

    uint64_t capacityBytes() const { return config_.capacityBytes; }
    uint64_t usedBytes() const { return usedBytes_; }
    uint64_t freeBytes() const;
    bool writable() const { return config_.writable; }
    void setWritable(bool writable) { config_.writable = writable; }

    /**
     * Availability state, driven by the FaultInjector (or set directly
     * by tests). An offline device fails every access and migration;
     * a health factor below 1 scales the effective bandwidth (e.g. a
     * RAID rebuild at factor 0.5 serves at half speed).
     */
    bool offline() const { return offline_; }
    bool available() const { return !offline_; }
    void setOffline(bool offline) { offline_ = offline; }
    double healthFactor() const { return healthFactor_; }
    void setHealthFactor(double factor);
    bool degraded() const { return healthFactor_ < 1.0; }

    /** External load factor at time `at`. */
    double externalLoad(double at) const;

    /** Self-contention load factor at time `at` (decayed busy time). */
    double selfLoad(double at) const;

    /**
     * Effective bandwidth for a read or write starting at `at`,
     * bytes/s: base / (1 + external + self).
     */
    double effectiveBandwidth(bool is_read, double at) const;

    /**
     * Simulate an access of `bytes` starting at `at`.
     *
     * Updates the self-contention state; the caller advances its clock
     * by the returned duration.
     */
    DeviceAccess access(uint64_t bytes, bool is_read, double at);

    /**
     * Simulate a *failed* access at `at`: burns the configured error
     * latency, delivers zero throughput, and is recorded in the stats
     * (a dying mount's measured mean collapses toward zero, which is
     * what lets placement logic learn to avoid it).
     */
    DeviceAccess failAccess(double at);

    /**
     * Account for a bulk transfer (migration traffic) occupying the
     * device for `seconds` starting at `at`, without producing an
     * access sample.
     */
    void addBusyTime(double at, double seconds);

    /** Reserve capacity for a placed file. Returns false if full. */
    bool reserve(uint64_t bytes);

    /** Release capacity of a removed file. */
    void release(uint64_t bytes);

    /** Lifetime throughput statistics of accesses on this device. */
    const StatAccumulator &throughputStats() const
    {
        return throughputStats_;
    }

    /** Number of accesses served (successful and failed). */
    uint64_t accessCount() const { return accessCount_; }

    /** Number of failed accesses (fault injection). */
    uint64_t failedAccessCount() const { return failedAccessCount_; }

    /**
     * Serialize every mutable field (usage, contention decay state,
     * stats, availability, the writable flag). Configuration is not
     * saved: a restore targets a device built from the same config.
     */
    void saveState(util::StateWriter &w) const;
    void loadState(util::StateReader &r);

  private:
    DeviceId id_;
    DeviceConfig config_;
    ExternalTraffic traffic_;
    uint64_t usedBytes_ = 0;

    // Decaying busy-time accumulator for self-contention.
    double busyLoad_ = 0.0;
    double lastBusyUpdate_ = 0.0;

    StatAccumulator throughputStats_;
    uint64_t accessCount_ = 0;
    uint64_t failedAccessCount_ = 0;

    // Availability state driven by the FaultInjector.
    bool offline_ = false;
    double healthFactor_ = 1.0;

    /** Decay busyLoad_ forward to time `at`. */
    void decayTo(double at);
};

} // namespace storage
} // namespace geo

#endif // GEO_STORAGE_DEVICE_HH
