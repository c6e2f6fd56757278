/**
 * @file
 * Synthetic CERN-EOS-style access trace generator.
 *
 * The paper uses EOS production logs (not redistributable) to discover
 * which access features correlate with throughput (Fig. 4) and to size
 * the network. This generator substitutes a causal model that produces
 * the same correlation structure:
 *
 *  - each storage device (fsid) has a base bandwidth and a diurnal +
 *    bursty external load, so time-of-day correlates with throughput;
 *  - accesses pay a fixed open/close overhead, so larger transfers
 *    (rb/wb) amortize it better and correlate positively;
 *  - read/write times (rt/wt) are the duration itself, hence strongly
 *    negatively correlated with throughput;
 *  - file and filesystem IDs, security fields and the day tag are
 *    incidental, hence weakly correlated.
 */

#ifndef GEO_TRACE_EOS_TRACE_GEN_HH
#define GEO_TRACE_EOS_TRACE_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/access_record.hh"
#include "util/random.hh"

namespace geo {
namespace trace {

/** Configuration of the synthetic EOS cluster. */
struct EosTraceConfig
{
    size_t deviceCount = 12;      ///< number of fsids
    size_t fileCount = 400;       ///< catalog size
    size_t directoryCount = 24;   ///< distinct path prefixes
    double meanInterArrival = 0.4;///< seconds between opens
    double readFraction = 0.85;   ///< fraction of accesses that read
    double openOverhead = 0.020;  ///< fixed per-access seconds
    double minBandwidth = 80e6;   ///< slowest device, bytes/s
    double maxBandwidth = 2.4e9;  ///< fastest device, bytes/s
    double fileSizeLogMean = 17.5;///< lognormal mu (≈ 40 MB median)
    double fileSizeLogSigma = 1.6;
    double diurnalAmplitude = 0.6;///< strength of time-of-day load
    double burstProbability = 0.02; ///< chance an access hits a burst
    double burstSlowdown = 6.0;   ///< load multiplier during a burst
    uint64_t seed = 42;
};

/**
 * Generator of EOS-style access records with realistic correlations.
 */
class EosTraceGenerator
{
  public:
    explicit EosTraceGenerator(const EosTraceConfig &config);

    /** Generate `count` records in open-time order. */
    std::vector<AccessRecord> generate(size_t count);

    /** The catalog path of file `fid` (1-based fids). */
    const std::string &filePath(uint64_t fid) const;

  private:
    struct FileInfo
    {
        std::string path;
        uint64_t sizeBytes;
        uint32_t homeDevice; ///< fsid
        uint32_t appClass;   ///< drives secapp and access mix
    };

    EosTraceConfig config_;
    Rng rng_;
    std::vector<double> deviceBandwidth_; ///< per-fsid base bytes/s
    std::vector<double> devicePhase_;     ///< diurnal phase offset
    std::vector<FileInfo> files_;
    double now_ = 0.0;

    /** Instantaneous external load factor (>= 0) on a device. */
    double deviceLoad(uint32_t fsid, double at) const;
};

} // namespace trace
} // namespace geo

#endif // GEO_TRACE_EOS_TRACE_GEN_HH
