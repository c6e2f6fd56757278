/**
 * @file
 * Statistics and result formatting of the decision-cycle benchmark.
 *
 * Timings are reported as a median and the highest percentile with at
 * least kMinTailSamples samples beyond it; percentile() refuses a
 * percentile the sample cannot support. The last line a run prints is
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported percentile. */
constexpr size_t kMinTailSamples = 10;

/** Samples of `n` that lie beyond the q-quantile: n - ceil(n * q). */
size_t samplesBeyond(size_t n, double q);

/**
 * The q-quantile (0 < q < 1) of `samples`, linearly interpolated
 * between order statistics. @return false, leaving `out` untouched,
 * when fewer than kMinTailSamples samples lie beyond it.
 */
bool percentile(std::vector<double> samples, double q, double &out);

/** Median without the tail rule (per-layer summaries); 0 when empty. */
double median(std::vector<double> samples);

/** Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or
 *  digit. */
bool validMetricName(const std::string &name);

/** Units: 1-16 of [A-Za-z0-9_/%.-]. */
bool validUnit(const std::string &unit);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 1; ///< observations the value summarizes
};

/** The metrics of one run, in insertion order. */
class Report
{
  public:
    /**
     * Add a metric. @return false (and record the problem in errors())
     * when the name or unit is malformed, the name is already used or
     * the value is not finite.
     */
    bool add(const std::string &name, double value, const std::string &unit,
             size_t samples = 1);

    const std::vector<Metric> &metrics() const { return metrics_; }
    const std::vector<std::string> &errors() const { return errors_; }

    /** Value of a metric, or `fallback` when absent. */
    double value(const std::string &name, double fallback = 0.0) const;

    /** One "metric <name> = <value> <unit> (n=<samples>)" per line. */
    std::string text() const;

    /** The result object (one line, no trailing newline). */
    std::string json(bool correct, uint64_t attempted,
                     uint64_t failed) const;

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> errors_;
};

/** A double with 15 significant digits (JSON-safe for finite values). */
std::string formatNumber(double value);

/** Escape a string for a JSON string literal. */
std::string jsonEscape(const std::string &text);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
