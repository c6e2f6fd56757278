/**
 * @file
 * External (other-user) load model for a shared storage device.
 *
 * The paper's testbed is shared: the NFS home mount "can have long
 * latencies of several hours if other users run I/O heavy workloads",
 * while the RAID-5 mount "saw the least amount of external traffic".
 * This model produces a deterministic load factor as a pure function of
 * time: a diurnal sinusoid plus hash-seeded bursts plus small noise, so
 * replaying an experiment with the same seed yields identical dynamics.
 */

#ifndef GEO_STORAGE_EXTERNAL_TRAFFIC_HH
#define GEO_STORAGE_EXTERNAL_TRAFFIC_HH

#include <cstdint>

namespace geo {
namespace storage {

/** Shape of one device's external load process. */
struct ExternalTrafficConfig
{
    double baseLoad = 0.1;        ///< constant background load
    double diurnalAmplitude = 0.3;///< peak of the sinusoidal component
    double periodSeconds = 3600.0;///< cycle length (compressed "day")
    double burstProbability = 0.01; ///< per-bucket chance of a burst
    double burstMagnitude = 4.0;  ///< load added during a burst
    double burstSeconds = 30.0;   ///< burst bucket duration
    double noiseAmplitude = 0.05; ///< per-bucket uniform jitter
    uint64_t seed = 1;            ///< decorrelates devices
};

/**
 * Deterministic external-load process.
 *
 * load(t) >= 0 is the ratio of competing traffic to device capacity;
 * the device divides its bandwidth by (1 + load).
 */
class ExternalTraffic
{
  public:
    explicit ExternalTraffic(const ExternalTrafficConfig &config);

    /** Load factor at absolute time `at` (seconds). */
    double load(double at) const;

    /** The diurnal component only (used by tests and plotting). */
    double diurnal(double at) const;

    /** Whether time `at` falls in a burst bucket. */
    bool inBurst(double at) const;

  private:
    ExternalTrafficConfig config_;

    /** Deterministic uniform [0,1) for a (seed, bucket) pair. */
    double hashUniform(uint64_t bucket, uint64_t salt) const;
};

} // namespace storage
} // namespace geo

#endif // GEO_STORAGE_EXTERNAL_TRAFFIC_HH
