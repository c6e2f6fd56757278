#include "util/flight_recorder.hh"

#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "util/trace_event.hh"

namespace geo {
namespace util {

const char *
flightKindName(FlightKind kind)
{
    switch (kind) {
      case FlightKind::PhaseBegin:
        return "phase_begin";
      case FlightKind::PhaseEnd:
        return "phase_end";
      case FlightKind::QuarantineReject:
        return "quarantine_reject";
      case FlightKind::BreakerTrip:
        return "breaker_trip";
      case FlightKind::SafeModeEnter:
        return "safe_mode_enter";
      case FlightKind::SafeModeExit:
        return "safe_mode_exit";
      case FlightKind::LayoutHold:
        return "layout_hold";
      case FlightKind::CheckpointWrite:
        return "checkpoint_write";
      case FlightKind::CrashPoint:
        return "crash_point";
      case FlightKind::TrainDiverged:
        return "train_diverged";
      case FlightKind::MovesAbandoned:
        return "moves_abandoned";
      case FlightKind::Restore:
        return "restore";
    }
    return "unknown";
}

void
FlightRecorder::record(FlightKind kind, double sim_time, uint64_t a0,
                       uint64_t a1, uint64_t a2)
{
    uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = slots_[seq % kCapacity];
    // Invalidate first so a concurrent dump never emits a half-new
    // half-old line; the payload stores may still interleave with a
    // racing writer or reader, but the final stamp mismatch makes
    // readers skip the slot.
    slot.stamp.store(0, std::memory_order_release);
    slot.sim.store(sim_time, std::memory_order_relaxed);
    slot.a0.store(a0, std::memory_order_relaxed);
    slot.a1.store(a1, std::memory_order_relaxed);
    slot.a2.store(a2, std::memory_order_relaxed);
    slot.kind.store(kind, std::memory_order_relaxed);
    slot.stamp.store(seq + 1, std::memory_order_release);
}

size_t
FlightRecorder::size() const
{
    uint64_t total = next_.load(std::memory_order_relaxed);
    return total < kCapacity ? static_cast<size_t>(total) : kCapacity;
}

std::vector<FlightEvent>
FlightRecorder::snapshot() const
{
    uint64_t total = next_.load(std::memory_order_acquire);
    uint64_t first = total > kCapacity ? total - kCapacity : 0;
    std::vector<FlightEvent> out;
    out.reserve(static_cast<size_t>(total - first));
    for (uint64_t seq = first; seq < total; ++seq) {
        const Slot &slot = slots_[seq % kCapacity];
        if (slot.stamp.load(std::memory_order_acquire) != seq + 1)
            continue; // torn or already overwritten
        FlightEvent event;
        event.seq = seq;
        event.sim = slot.sim.load(std::memory_order_relaxed);
        event.a0 = slot.a0.load(std::memory_order_relaxed);
        event.a1 = slot.a1.load(std::memory_order_relaxed);
        event.a2 = slot.a2.load(std::memory_order_relaxed);
        event.kind = slot.kind.load(std::memory_order_relaxed);
        if (slot.stamp.load(std::memory_order_acquire) != seq + 1)
            continue; // overwritten while copying
        out.push_back(event);
    }
    return out;
}

void
FlightRecorder::clear()
{
    for (Slot &slot : slots_)
        slot.stamp.store(0, std::memory_order_relaxed);
    next_.store(0, std::memory_order_relaxed);
}

void
FlightRecorder::setDumpDir(const std::string &dir)
{
    size_t n = dir.size();
    if (n >= sizeof dumpDir_)
        n = sizeof dumpDir_ - 1;
    std::memcpy(dumpDir_, dir.data(), n);
    dumpDir_[n] = '\0';
}

bool
FlightRecorder::dumpTo(int fd) const
{
    char line[192];
    uint64_t total = next_.load(std::memory_order_acquire);
    int len = std::snprintf(line, sizeof line,
                            "geo-flight-1 recorded=%" PRIu64
                            " capacity=%zu\n",
                            total, kCapacity);
    if (len < 0 || ::write(fd, line, static_cast<size_t>(len)) != len)
        return false;
    uint64_t first = total > kCapacity ? total - kCapacity : 0;
    for (uint64_t seq = first; seq < total; ++seq) {
        const Slot &slot = slots_[seq % kCapacity];
        if (slot.stamp.load(std::memory_order_acquire) != seq + 1)
            continue;
        len = std::snprintf(
            line, sizeof line,
            "%" PRIu64 " %.6f %s %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
            seq, slot.sim.load(std::memory_order_relaxed),
            flightKindName(slot.kind.load(std::memory_order_relaxed)),
            slot.a0.load(std::memory_order_relaxed),
            slot.a1.load(std::memory_order_relaxed),
            slot.a2.load(std::memory_order_relaxed));
        if (slot.stamp.load(std::memory_order_acquire) != seq + 1)
            continue; // overwritten while formatting: drop the line
        if (len < 0 || ::write(fd, line, static_cast<size_t>(len)) != len)
            return false;
    }
    return true;
}

bool
FlightRecorder::crashDump(const char *tag)
{
    if (!dumpDirSet())
        return false;
    char path[640];
    int len = std::snprintf(path, sizeof path, "%s/flight-%s-%ld.txt",
                            dumpDir_, tag,
                            static_cast<long>(::getpid()));
    if (len < 0 || static_cast<size_t>(len) >= sizeof path)
        return false;
    int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    bool ok = dumpTo(fd);
    ::close(fd);
    return ok;
}

namespace {

void
fatalSignalHandler(int sig)
{
    // Best-effort post-mortem artifacts, then die with the original
    // signal under its default disposition (SA_RESETHAND restored it).
    FlightRecorder::global().crashDump("signal");
    TraceCollector::global().crashFlush();
    ::raise(sig);
}

} // namespace

void
FlightRecorder::installSignalHandlers()
{
    struct sigaction action;
    std::memset(&action, 0, sizeof action);
    action.sa_handler = fatalSignalHandler;
    action.sa_flags = SA_RESETHAND;
    sigemptyset(&action.sa_mask);
    for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL})
        ::sigaction(sig, &action, nullptr);
}

FlightRecorder &
FlightRecorder::global()
{
    static FlightRecorder recorder;
    return recorder;
}

} // namespace util
} // namespace geo
