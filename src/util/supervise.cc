#include "util/supervise.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/logging.hh"

namespace geo {
namespace util {

namespace {

/** Each further restart waits this many times longer... */
constexpr double kBackoffMultiplier = 2.0;
/** ...up to this many milliseconds. */
constexpr int kBackoffCapMs = 2000;

} // namespace

SuperviseResult
runSupervised(const std::function<int(int, bool)> &body,
              const SuperviseConfig &config)
{
    SuperviseResult result;
    double backoff = static_cast<double>(config.backoffMs);

    for (int attempt = 0;; ++attempt) {
        // The child inherits a copy of stdio's unflushed buffers; left
        // in place, both processes would write the same bytes.
        std::fflush(nullptr);
        pid_t pid = ::fork();
        if (pid < 0)
            fatal("runSupervised: fork failed: %s", std::strerror(errno));
        if (pid == 0) {
            // Child: run one attempt and exit without unwinding, so a
            // crash in the body can't corrupt the supervisor's state
            // and the parent's static destructors never run here.
            // _exit drops stdio's buffers, so flush what the body
            // printed first.
            int code = body(attempt, attempt > 0);
            std::fflush(nullptr);
            ::_exit(code);
        }

        int status = 0;
        while (::waitpid(pid, &status, 0) < 0) {
            if (errno != EINTR)
                fatal("runSupervised: waitpid failed: %s",
                      std::strerror(errno));
        }

        bool crashed = false;
        if (WIFSIGNALED(status)) {
            result.exitCode = 128 + WTERMSIG(status);
            crashed = true;
        } else {
            result.exitCode = WEXITSTATUS(status);
            crashed = result.exitCode == kCrashExitCode;
        }
        if (!crashed)
            return result;

        if (result.restarts >= config.maxRestarts) {
            warn("supervisor: child still crashing after %d restart(s); "
                 "giving up", result.restarts);
            return result;
        }

        int delayMs = static_cast<int>(backoff);
        if (delayMs > kBackoffCapMs)
            delayMs = kBackoffCapMs;
        inform("supervisor: child crashed (code %d); restart %d/%d after "
               "%d ms", result.exitCode, result.restarts + 1,
               config.maxRestarts, delayMs);
        if (delayMs > 0)
            ::usleep(static_cast<useconds_t>(delayMs) * 1000);
        backoff *= kBackoffMultiplier;
        ++result.restarts;
    }
}

} // namespace util
} // namespace geo
