/**
 * @file
 * Scoped-span event tracing in Chrome trace_event JSON format
 * (load the output in Perfetto or chrome://tracing).
 *
 * Two time domains, exported as two trace "processes":
 *
 *  - Host (pid 1): steady-clock wall time of compute work — model
 *    training, candidate scoring, decision-cycle phases. Spans come
 *    from ScopedSpan (RAII) on the current thread.
 *  - Sim (pid 2): SimClock seconds of simulated work — migrations,
 *    fault episodes. Callers pass sim timestamps explicitly because
 *    only they know which clock their span lives on.
 *
 * Recording discipline: the collector is disabled by default and every
 * record call is a single relaxed atomic load away from a no-op. When
 * enabled, events go into a buffer preallocated at enable() time —
 * recording never allocates; when the buffer fills, further events are
 * dropped and counted (a truncated trace beats a perturbed benchmark).
 * Event names/categories must be string literals (the collector stores
 * the pointers).
 */

#ifndef GEO_UTIL_TRACE_EVENT_HH
#define GEO_UTIL_TRACE_EVENT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace geo {
namespace util {

/** Which clock a span's timestamps come from. */
enum class TimeDomain : uint8_t {
    Host, ///< steady clock, microseconds since tracing was enabled
    Sim,  ///< SimClock, simulated seconds (converted to "us" on export)
};

/**
 * Collects trace events and serializes them as Chrome trace JSON.
 */
class TraceCollector
{
  public:
    /**
     * Start collecting. Preallocates space for `capacity` events; all
     * later recording is allocation-free. Re-enabling clears the
     * buffer and restarts the host-time epoch.
     */
    void enable(size_t capacity = kDefaultCapacity);

    /** Stop collecting (already-buffered events are kept). */
    void disable();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Drop all buffered events (the enabled state is unchanged). */
    void clear();

    /**
     * Record a completed span ("ph":"X"). Host domain: `ts` and `dur`
     * in microseconds (see nowUs()). Sim domain: in simulated seconds.
     * `cat` and `name` must outlive the collector (string literals).
     */
    void completeEvent(const char *cat, const char *name,
                       TimeDomain domain, double ts, double dur);

    /** Record an instant event ("ph":"i"). Units as completeEvent. */
    void instantEvent(const char *cat, const char *name,
                      TimeDomain domain, double ts);

    /** Events currently buffered. */
    size_t eventCount() const;

    /** Events rejected because the buffer was full. */
    uint64_t droppedCount() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Serialize the buffer as Chrome trace JSON. */
    std::string toJson() const;

    /** Write toJson() to a file. @return false on I/O error. */
    bool writeJsonFile(const std::string &path) const;

    /**
     * Register the path crashFlush() writes to (copied into a fixed
     * internal buffer; empty disables). Set this alongside the normal
     * trace output path so a crashed run keeps its trace tail.
     */
    void setCrashFlushPath(const std::string &path);

    /**
     * Best-effort dump of the buffered events for fatal-signal and
     * kill-point paths: the already-recorded POD events are formatted
     * with snprintf into a stack buffer and written with write(2) —
     * no allocation, no locks (a recorder racing mid-push can cost at
     * most the event it was appending). The output is the same Chrome
     * trace JSON as toJson(). @return false when no crash path is
     * registered or I/O failed.
     */
    bool crashFlush() const;

    /** crashFlush() to an already-open descriptor. */
    bool crashFlushTo(int fd) const;

    /** Host-domain timestamp: steady-clock microseconds since the
     *  collector was (first) enabled. */
    double nowUs() const;

    /** The process-wide collector the GEO_SPAN macros record into. */
    static TraceCollector &global();

    static constexpr size_t kDefaultCapacity = 1 << 16;

  private:
    struct Event
    {
        const char *cat;
        const char *name;
        double ts;    ///< host: us; sim: seconds
        double dur; ///< span length (same unit as ts)
        uint32_t tid;
        char phase; ///< 'X' span, 'i' instant
        TimeDomain domain;
    };

    void push(const Event &event);

    /**
     * The one trace formatter: the Chrome trace JSON of `count`
     * events, snprintf'd chunk by chunk into a stack buffer and handed
     * to `sink(chunk, len)`, which returns false to stop. It allocates
     * and locks nothing, so crashFlushTo() runs it on fatal-signal
     * paths; toJson() runs it over a copy taken under the lock.
     * @return false when a chunk did not fit its buffer or the sink
     * stopped.
     */
    template <typename Sink>
    static bool formatJson(const Event *events, size_t count, Sink &&sink);

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> dropped_{0};
    std::atomic<int64_t> epochNs_{0};
    mutable std::mutex mutex_;
    std::vector<Event> events_; ///< capacity fixed at enable() time
    char crashPath_[512] = {0}; ///< crashFlush() destination
};

/**
 * RAII host-domain span: measures construction-to-destruction on the
 * steady clock and records it into the global collector. When tracing
 * is disabled this is two relaxed loads and no clock reads.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *cat, const char *name)
        : cat_(cat), name_(name),
          active_(TraceCollector::global().enabled())
    {
        if (active_)
            startUs_ = TraceCollector::global().nowUs();
    }

    ~ScopedSpan()
    {
        if (!active_)
            return;
        TraceCollector &collector = TraceCollector::global();
        collector.completeEvent(cat_, name_, TimeDomain::Host, startUs_,
                                collector.nowUs() - startUs_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *cat_;
    const char *name_;
    bool active_;
    double startUs_ = 0.0;
};

/** Record a sim-domain span (timestamps in simulated seconds). */
inline void
traceSimSpan(const char *cat, const char *name, double start_s,
             double dur_s)
{
    TraceCollector &collector = TraceCollector::global();
    if (collector.enabled())
        collector.completeEvent(cat, name, TimeDomain::Sim, start_s,
                                dur_s);
}

/** Record an instant event in either domain. */
inline void
traceInstant(const char *cat, const char *name, TimeDomain domain,
             double ts)
{
    TraceCollector &collector = TraceCollector::global();
    if (collector.enabled())
        collector.instantEvent(cat, name, domain, ts);
}

} // namespace util
} // namespace geo

#define GEO_TRACE_CONCAT2(a, b) a##b
#define GEO_TRACE_CONCAT(a, b) GEO_TRACE_CONCAT2(a, b)
/** Host-domain scoped span covering the rest of the enclosing block. */
#define GEO_SPAN(cat, name)                                             \
    ::geo::util::ScopedSpan GEO_TRACE_CONCAT(geo_span_, __LINE__)       \
    {                                                                   \
        cat, name                                                       \
    }
/** Sim-domain span from explicit (start, duration) sim seconds. */
#define GEO_SIM_SPAN(cat, name, start_s, dur_s)                         \
    ::geo::util::traceSimSpan(cat, name, start_s, dur_s)
/** Instant marker in the given domain. */
#define GEO_TRACE_INSTANT(cat, name, domain, ts)                        \
    ::geo::util::traceInstant(cat, name, domain, ts)

#endif // GEO_UTIL_TRACE_EVENT_HH
