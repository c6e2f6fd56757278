/**
 * @file
 * In-memory spans of a traced benchmark run.
 *
 * The benchmark records one span around each of its own calls into a
 * layer's public functions (nothing inside the library is traced):
 * name, start, end, the enclosing span and the decision it belongs to.
 * Spans stay in memory and are written once, at exit, as a Chrome trace
 * (viewable in Perfetto or chrome://tracing).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since `start`. */
inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** Span recorder; every call is a no-op when disabled. */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Decision id stamped on spans opened from now on (0 = none). */
    void setDecision(uint64_t id) { decision_ = id; }

    /** RAII span: opened by Tracer::span(), closed by the destructor. */
    class Span
    {
      public:
        Span(Tracer *tracer, const char *name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer_; ///< null when tracing is off
        size_t index_ = 0;
    };

    /** Open a span; `name` must be a string literal. */
    Span span(const char *name) { return Span(enabled_ ? this : nullptr, name); }

    size_t spanCount() const { return spans_.size(); }

    /** Write every span as Chrome trace JSON. @return false on I/O
     *  error or an unclosed span. */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Record
    {
        const char *name = "";
        int64_t startNs = 0;
        int64_t endNs = -1; ///< -1 while open
        int64_t parent = -1;
        uint64_t decision = 0;
    };

    int64_t nowNs() const;

    bool enabled_;
    uint64_t decision_ = 0;
    Clock::time_point origin_;
    std::vector<Record> spans_;
    std::vector<size_t> open_; ///< stack of open span indices
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
