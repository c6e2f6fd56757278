/**
 * @file
 * Supervised-restart loop for crash-tolerant daemons.
 *
 * The Geomancy daemon is meant to run for the lifetime of the storage
 * system; when it dies mid-cycle (injected kill point, OOM, signal)
 * something must restart it from the last checkpoint. runSupervised()
 * is that something: it forks the body into a child process per
 * attempt, and when the child dies by signal or exits with the crash
 * exit code it restarts it — with exponential backoff — telling the
 * new attempt to resume from the checkpoint directory.
 */

#ifndef GEO_UTIL_SUPERVISE_HH
#define GEO_UTIL_SUPERVISE_HH

#include <functional>

namespace geo {
namespace util {

/**
 * Exit code an injected CrashPoint uses to die.
 *
 * Distinct from 0 (success) and 1 (fatal() user error) so the
 * supervisor can tell "injected/abnormal crash, restart me" from
 * "configuration error, restarting is pointless".
 */
constexpr int kCrashExitCode = 86;

struct SuperviseConfig
{
    /** Restarts allowed after the first attempt (0 = run once). */
    int maxRestarts = 3;
    /** Delay before the first restart (doubles each further restart,
     *  up to 2 s). */
    int backoffMs = 100;
};

struct SuperviseResult
{
    int restarts = 0; ///< bodies started after the first
    int exitCode = 0; ///< final child's exit code (or 128+signal)
};

/**
 * Run `body` in a forked child, restarting it after crashes.
 *
 * The body receives the attempt index (0 for the first run) and a
 * resume flag (true on every restart); its return value becomes the
 * child's exit code. A child that exits with kCrashExitCode or dies by
 * signal is restarted up to maxRestarts times; any other exit code is
 * final and returned to the caller. stdio is flushed before each fork
 * and after the body returns, so what the caller and the body print
 * reaches a file or pipe exactly once.
 */
SuperviseResult runSupervised(const std::function<int(int, bool)> &body,
                              const SuperviseConfig &config = {});

} // namespace util
} // namespace geo

#endif // GEO_UTIL_SUPERVISE_HH
