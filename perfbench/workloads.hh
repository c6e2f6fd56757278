/**
 * @file
 * The benchmark's workloads, driven through the library's public API.
 *
 * A run sets the workload up several times (setup_s is the median) and
 * then measures whole episodes (setup, measured runs, final snapshot
 * and restore) until at least `--seconds` of measured time and enough
 * decisions for the reported percentiles have accumulated. Every
 * episode of a run uses the same seed, so their decision digests must
 * agree. Untraced runs report the end-to-end metrics; traced runs
 * report the per-layer ones (see perfbench/README.md for both lists).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cli.hh"
#include "report.hh"

namespace perfbench {

/** Everything one run produced. */
struct RunResult
{
    Report report;
    /** Correctness-gate failures; the run is correct when empty. */
    std::vector<std::string> failures;
    /** Context lines (configuration, sample counts, digest). */
    std::vector<std::string> info;
    uint64_t attempted = 0; ///< measured workload runs plus decisions
    uint64_t failed = 0;    ///< decisions whose retrain diverged/cancelled

    bool correct() const { return failures.empty(); }
};

/** Run one workload as `options` describes. */
RunResult runBenchmark(const Options &options);

/**
 * Whether `line` is one well-formed JSON object (the ledger gate's
 * parser: full JSON syntax, no trailing bytes).
 */
bool jsonObjectValid(const std::string &line);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
