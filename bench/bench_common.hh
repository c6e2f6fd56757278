/**
 * @file
 * Shared helpers for the table/figure regeneration harnesses.
 *
 * Scale knobs default to values that keep every bench comfortably
 * runnable on a laptop; set GEO_BENCH_FULL=1 in the environment to run
 * at the paper's scale (12,000-entry training windows, 200 epochs,
 * hundreds of workload runs).
 */

#ifndef GEO_BENCH_COMMON_HH
#define GEO_BENCH_COMMON_HH

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "util/logging.hh"
#include "util/parse.hh"
#include "util/supervise.hh"

namespace geo {
namespace bench {

/** True when GEO_BENCH_FULL=1: run at the paper's full scale. */
inline bool
fullScale()
{
    const char *env = std::getenv("GEO_BENCH_FULL");
    return env != nullptr && std::string(env) == "1";
}

/** Integer knob with reduced/full defaults and an env override (a
 *  value that is not a non-negative integer is fatal). */
inline size_t
knob(const char *env_name, size_t reduced, size_t full)
{
    if (const char *env = std::getenv(env_name)) {
        uint64_t value = 0;
        if (!util::parseU64(env, value))
            fatal("%s='%s': expected a non-negative integer", env_name,
                  env);
        return static_cast<size_t>(value);
    }
    return fullScale() ? full : reduced;
}

/** Print the standard bench header. */
inline void
header(const std::string &what, const std::string &paper_ref)
{
    std::cout << "=== Geomancy reproduction: " << what << " ===\n";
    std::cout << "Paper reference: " << paper_ref << "\n";
    std::cout << "Scale: " << (fullScale() ? "FULL (paper)" : "reduced")
              << "  (set GEO_BENCH_FULL=1 for paper scale)\n\n";
}

/** Format bytes/s as GB/s with 2 decimals. */
inline std::string
gbps(double bytes_per_second)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", bytes_per_second / 1e9);
    return buf;
}

// --- Crash drills (fig8, fig9) ------------------------------------

/** Supervision of a scenario that crashes on purpose (a short backoff
 *  keeps the bench snappy). */
inline constexpr util::SuperviseConfig kCrashDrillSupervision{
    .maxRestarts = 2, .backoffMs = 10};

/** One key's value in a drill child's "key value" stats text (0 if
 *  absent). */
inline double
statValue(const std::string &stats, const std::string &key)
{
    std::istringstream is(stats);
    std::string k;
    double v;
    while (is >> k >> v)
        if (k == key)
            return v;
    return 0.0;
}

/** Did a kill point leave a flight-recorder dump in `dir`? */
inline bool
hasFlightDump(const std::string &dir)
{
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(dir, ec))
        if (entry.path().filename().string().rfind("flight-killpoint-",
                                                   0) == 0)
            return true;
    return false;
}

} // namespace bench
} // namespace geo

#endif // GEO_BENCH_COMMON_HH
