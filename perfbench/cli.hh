/**
 * @file
 * Command line of the decision-cycle benchmark driver.
 *
 * Every argument is validated: a malformed or out-of-range value makes
 * parseOptions() return false with a message, so the driver exits with
 * a usage error instead of aborting on an uncaught exception.
 */

#ifndef PERFBENCH_CLI_HH
#define PERFBENCH_CLI_HH

#include <cstdint>
#include <string>

namespace perfbench {

/** The benchmark's workloads (see perfbench/README.md). */
enum class Workload {
    CycleSteady,  ///< Experiment 1: retrain-bound decision cycles
    IngestStatic, ///< 4 tenants under Geomancy static: the ingest path
    FleetDurable, ///< 4 shards, faults, file-backed state, checkpoints
};

/** Name of a workload as given on the command line. */
const char *workloadName(Workload workload);

/** Parse a workload name; false when unknown. */
bool parseWorkload(const std::string &name, Workload &out);

/** Everything the command line sets. */
struct Options
{
    Workload workload = Workload::CycleSteady;
    uint64_t seed = 1;
    /** Minimum measured time of one run; whole episodes are added
     *  until it is reached. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Multiplier of every episode's measured length (runs). */
    double scale = 1.0;
    /** Scratch directory for databases, ledgers and checkpoints. */
    std::string workDir = ".bench_work";
    /** Traced runs write their spans here (Chrome trace JSON). */
    std::string spansOut;
    bool help = false;
};

/**
 * Parse `argv`. @return false with `error` set on an unknown flag, a
 * missing value or a value out of range; never throws.
 */
bool parseOptions(int argc, const char *const *argv, Options &out,
                  std::string &error);

/** Usage text. */
std::string usage();

/** Strict decimal parse of a whole number in [min, max]. */
bool parseUnsigned(const std::string &text, uint64_t min, uint64_t max,
                   uint64_t &out);

/** Strict parse of a finite number in (0, max]. */
bool parsePositive(const std::string &text, double max, double &out);

} // namespace perfbench

#endif // PERFBENCH_CLI_HH
