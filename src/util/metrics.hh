/**
 * @file
 * Process-wide metric registry: named counters, gauges and
 * log-bucketed histograms for the agent pipeline's self-telemetry.
 *
 * Design rules (the hot path is a decision cycle scoring thousands of
 * candidates while worker threads train models):
 *
 *  - recording is lock-free: counters and histogram buckets are relaxed
 *    atomics, so instrumentation never serializes the instrumented code;
 *  - recording is allocation-free: components resolve their metric
 *    handles once (construction time) and keep the returned reference —
 *    handle addresses are stable for the registry's lifetime;
 *  - reading is approximate under concurrency: snapshots are taken
 *    metric-by-metric without a global lock, which is fine for
 *    telemetry and keeps the exporters off the recording paths.
 *
 * Histograms use base-2 log bucketing (one bucket per power of two)
 * over [2^kMinExp, 2^kMaxExp), plus an underflow bucket for values
 * <= 2^kMinExp (including zero and negatives) and an overflow bucket.
 * Quantiles are estimated by linear interpolation inside the bucket
 * where the target rank falls, clamped to the observed min/max.
 *
 * Snapshots export as JSON ("geo-metrics-1" schema) or Prometheus-style
 * text exposition (histograms become summaries with p50/p95/p99).
 */

#ifndef GEO_UTIL_METRICS_HH
#define GEO_UTIL_METRICS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace geo {
namespace util {

/** Monotonic event counter. */
class Counter
{
  public:
    void add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
    void inc() { add(1); }
    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { set(0.0); }

  private:
    std::atomic<double> value_{0.0};
};

/** Point-in-time view of one histogram. */
struct HistogramSnapshot
{
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0; ///< 0 when count == 0
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/**
 * Lock-free log-bucketed histogram.
 */
class Histogram
{
  public:
    /** Bucket 0 holds values <= 2^kMinExp (incl. zero/negatives). */
    static constexpr int kMinExp = -20; ///< ~9.5e-7
    static constexpr int kMaxExp = 44;  ///< ~1.76e13
    /** underflow + one per power of two + overflow. */
    static constexpr size_t kBucketCount =
        static_cast<size_t>(kMaxExp - kMinExp) + 2;

    /** Index of the bucket `value` lands in. */
    static size_t bucketIndex(double value);
    /** Inclusive lower bound of bucket `index` (0 for the underflow). */
    static double bucketLowerBound(size_t index);
    /** Exclusive upper bound of bucket `index`. */
    static double bucketUpperBound(size_t index);

    /** Record one observation (relaxed atomics; no locks, no allocs). */
    void record(double value);

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    /** Estimate the q-quantile (q in [0, 1]) from the buckets. */
    double quantile(double q) const;

    HistogramSnapshot snapshot() const;

    void reset();

  private:
    std::atomic<uint64_t> buckets_[kBucketCount] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/**
 * Named metric registry with stable handle addresses.
 */
class MetricRegistry
{
  public:
    /**
     * Look up (or create) a metric by name. The returned reference
     * stays valid for the registry's lifetime — resolve once, keep the
     * handle, record through it. Names are independent per metric
     * kind; the dotted "component.metric" scheme is the convention
     * (see DESIGN.md §7).
     */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Zero every metric; registrations (and handles) survive. */
    void reset();

    /** Current value of a counter, 0 when it was never registered. */
    uint64_t counterValue(const std::string &name) const;

    /** JSON snapshot ("geo-metrics-1": counters/gauges/histograms). */
    std::string toJson() const;

    /**
     * Attach help text to a metric (any kind; keyed by the dotted
     * name). Exported as the `# HELP` line of the Prometheus
     * exposition, escaped per the format rules. Metrics without help
     * get a generated fallback.
     */
    void setHelp(const std::string &name, const std::string &help);

    /** Prometheus text exposition (dots become underscores, histograms
     *  export as summaries with p50/p95/p99, `# HELP`/`# TYPE` per
     *  metric, label values and help text escaped per the format). */
    std::string toPrometheus() const;

    /** Escape HELP text per the exposition format: backslash and
     *  newline become \\ and \n. */
    static std::string promEscapeHelp(const std::string &text);

    /** Escape a label value per the exposition format: backslash,
     *  double quote and newline become \\, \" and \n. */
    static std::string promEscapeLabel(const std::string &value);

    /** Write toJson() to a file. @return false on I/O error. */
    bool writeJsonFile(const std::string &path) const;

    /** Sorted (name, value) views, for tables and tests. */
    std::vector<std::pair<std::string, uint64_t>> counters() const;
    std::vector<std::pair<std::string, double>> gauges() const;
    std::vector<std::pair<std::string, HistogramSnapshot>>
    histograms() const;

    /** The process-wide registry every component records into. */
    static MetricRegistry &global();

    /**
     * Push a name prefix applied to every subsequent counter(),
     * gauge() and histogram() resolution ("shard0." makes a component
     * constructed under it resolve "shard0.control.moves_applied").
     * Scopes nest by concatenation; setHelp() is never scoped (help
     * text is shared by all shards of a metric). Use the RAII
     * MetricScope guard instead of calling these directly.
     */
    void pushScope(const std::string &prefix);
    void popScope();

    /** The active scopes' prefix ("" outside any scope), for a
     *  component that resolves names lazily but must resolve them
     *  under the scope it was built in. */
    std::string scopePrefix() const;

    /**
     * Split a shard-scoped name: "shard3.control.moves_applied" fills
     * base = "control.moves_applied", shard = "3" and returns true.
     * Names without a "shard<digits>." prefix return false. The
     * Prometheus exporter uses this to turn the per-shard name prefix
     * into a proper `shard` label.
     */
    static bool splitShardScope(const std::string &name,
                                std::string &base, std::string &shard);

  private:
    mutable std::mutex mutex_; ///< guards the maps, never the metrics
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::map<std::string, std::string> help_; ///< HELP text by name
    std::vector<std::string> scopes_; ///< active prefixes, innermost last

    /** `name` under the active scope (mutex_ must be held). */
    std::string scoped(const std::string &name) const;

    /** Registered help for `name`, or a generated fallback. */
    std::string helpFor(const std::string &name) const;
};

/**
 * RAII metric scope: components constructed while the guard is alive
 * resolve their handles under `prefix` (the shard coordinator labels
 * each shard's pipeline this way). Recording through already-resolved
 * handles is unaffected — the scope only matters at resolution time.
 */
class MetricScope
{
  public:
    MetricScope(MetricRegistry &registry, const std::string &prefix)
        : registry_(registry)
    {
        registry_.pushScope(prefix);
    }
    ~MetricScope() { registry_.popScope(); }
    MetricScope(const MetricScope &) = delete;
    MetricScope &operator=(const MetricScope &) = delete;

  private:
    MetricRegistry &registry_;
};

} // namespace util
} // namespace geo

#endif // GEO_UTIL_METRICS_HH
