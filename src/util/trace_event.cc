#include "util/trace_event.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

namespace geo {
namespace util {

namespace {

/** Small dense thread id for the trace (std::thread::id is opaque). */
uint32_t
currentTid()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t tid = next.fetch_add(1);
    return tid;
}

int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

void
TraceCollector::enable(size_t capacity)
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    events_.reserve(capacity == 0 ? 1 : capacity);
    dropped_.store(0, std::memory_order_relaxed);
    epochNs_.store(steadyNowNs(), std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_release);
}

void
TraceCollector::disable()
{
    enabled_.store(false, std::memory_order_release);
}

void
TraceCollector::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    dropped_.store(0, std::memory_order_relaxed);
}

double
TraceCollector::nowUs() const
{
    return static_cast<double>(
               steadyNowNs() -
               epochNs_.load(std::memory_order_relaxed)) /
           1e3;
}

void
TraceCollector::push(const Event &event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // capacity was fixed at enable(); growing here would allocate on
    // the recording path, so a full buffer drops instead.
    if (events_.size() >= events_.capacity()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    events_.push_back(event);
}

void
TraceCollector::completeEvent(const char *cat, const char *name,
                              TimeDomain domain, double ts, double dur)
{
    if (!enabled())
        return;
    push({cat, name, ts, dur, currentTid(), 'X', domain});
}

void
TraceCollector::instantEvent(const char *cat, const char *name,
                             TimeDomain domain, double ts)
{
    if (!enabled())
        return;
    push({cat, name, ts, 0.0, currentTid(), 'i', domain});
}

size_t
TraceCollector::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

template <typename Sink>
bool
TraceCollector::formatJson(const Event *events, size_t count, Sink &&sink)
{
    char buf[512];
    // A chunk that does not fit is an error, not a cut line.
    auto emit = [&](int len) {
        return len >= 0 && static_cast<size_t>(len) < sizeof buf &&
               sink(buf, static_cast<size_t>(len));
    };
    // Process metadata so Perfetto labels the two time domains.
    if (!emit(std::snprintf(
            buf, sizeof buf,
            "{\"traceEvents\":[\n"
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
            "\"args\":{\"name\":\"geomancy host (steady clock)\"}},\n"
            "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\","
            "\"args\":{\"name\":\"geomancy sim (SimClock)\"}}")))
        return false;
    for (size_t i = 0; i < count; ++i) {
        const Event &event = events[i];
        if (!event.cat || !event.name)
            continue; // torn slot: the pointers are set on push
        const bool sim = event.domain == TimeDomain::Sim;
        // Sim timestamps are seconds; the trace format wants us.
        const double scale = sim ? 1e6 : 1.0;
        if (!emit(std::snprintf(buf, sizeof buf,
                                ",\n{\"ph\":\"%c\",\"pid\":%d,\"tid\":%u,"
                                "\"ts\":%.6g,\"cat\":\"%s\",\"name\":\"%s\"",
                                event.phase, sim ? 2 : 1,
                                sim ? 0 : event.tid, event.ts * scale,
                                event.cat, event.name)))
            return false;
        const int len =
            event.phase == 'X'
                ? std::snprintf(buf, sizeof buf, ",\"dur\":%.6g}",
                                event.dur * scale)
                : std::snprintf(buf, sizeof buf, ",\"s\":\"t\"}");
        if (!emit(len))
            return false;
    }
    return emit(std::snprintf(buf, sizeof buf,
                              "\n],\"displayTimeUnit\":\"ms\"}\n"));
}

std::string
TraceCollector::toJson() const
{
    std::vector<Event> events;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events = events_;
    }
    std::string out;
    formatJson(events.data(), events.size(),
               [&out](const char *chunk, size_t len) {
                   out.append(chunk, len);
                   return true;
               });
    return out;
}

bool
TraceCollector::writeJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toJson();
    return static_cast<bool>(out);
}

void
TraceCollector::setCrashFlushPath(const std::string &path)
{
    size_t n = path.size();
    if (n >= sizeof crashPath_)
        n = sizeof crashPath_ - 1;
    std::memcpy(crashPath_, path.data(), n);
    crashPath_[n] = '\0';
}

bool
TraceCollector::crashFlushTo(int fd) const
{
    // Deliberately lock-free: the crashing thread may be the one
    // holding mutex_. Reading the vector concurrently with a push is
    // benign in practice — capacity is fixed at enable() time, so the
    // storage never moves; at worst the event being appended is
    // dropped or torn, and a torn trace line beats no trace at all.
    const Event *events = events_.data();
    size_t count = events_.size();
    if (count > events_.capacity())
        count = 0; // size read mid-update: give up on the body

    return formatJson(events, count, [fd](const char *chunk, size_t len) {
        return ::write(fd, chunk, len) == static_cast<ssize_t>(len);
    });
}

bool
TraceCollector::crashFlush() const
{
    if (crashPath_[0] == '\0')
        return false;
    int fd = ::open(crashPath_, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return false;
    bool ok = crashFlushTo(fd);
    ::close(fd);
    return ok;
}

TraceCollector &
TraceCollector::global()
{
    static TraceCollector collector;
    return collector;
}

} // namespace util
} // namespace geo
