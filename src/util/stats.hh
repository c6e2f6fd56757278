/**
 * @file
 * Statistics accumulators and correlation measures.
 *
 * These are the numerical building blocks shared by the trace feature
 * analysis (Pearson correlation, Fig. 4 of the paper), the model search
 * (mean absolute relative error, Tables II/III) and the evaluation
 * harness (throughput mean/stddev, Table IV).
 */

#ifndef GEO_UTIL_STATS_HH
#define GEO_UTIL_STATS_HH

#include <cstddef>
#include <vector>

namespace geo {

/**
 * Streaming accumulator for mean / variance / extrema (Welford update).
 *
 * Numerically stable for long runs; O(1) memory.
 */
class StatAccumulator
{
  public:
    /** Add one sample. */
    void add(double value);

    size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (N denominator); 0 with fewer than 2 samples. */
    double variance() const;

    double stddev() const;
    double min() const;
    double max() const;
    double sum() const { return mean_ * static_cast<double>(count_); }

    /** Raw Welford state, exposed for checkpointing. */
    struct State
    {
        size_t count = 0;
        double mean = 0.0;
        double m2 = 0.0;
        double min = 0.0;
        double max = 0.0;
    };

    State state() const { return {count_, mean_, m2_, min_, max_}; }

    void
    restore(const State &s)
    {
        count_ = s.count;
        mean_ = s.mean;
        m2_ = s.m2;
        min_ = s.min;
        max_ = s.max;
    }

  private:
    size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Pearson correlation coefficient of two equal-length series.
 *
 * Returns 0 when either series has zero variance (the convention used by
 * the paper's feature screening: constant features carry no signal).
 */
double pearson(const std::vector<double> &xs, const std::vector<double> &ys);

/** Arithmetic mean of a series (0 for an empty series). */
double mean(const std::vector<double> &xs);

/** Population standard deviation of a series. */
double stddev(const std::vector<double> &xs);

/**
 * Mean absolute relative error |pred - target| / |target| in percent.
 *
 * Targets with magnitude below `floor` are skipped to avoid division
 * blow-ups; this mirrors the paper's absolute-relative-error metric of
 * Tables II and III.
 */
double meanAbsoluteRelativeError(const std::vector<double> &predictions,
                                 const std::vector<double> &targets,
                                 double floor = 1e-9);

/** Standard deviation of the per-sample absolute relative error (%). */
double stddevAbsoluteRelativeError(const std::vector<double> &predictions,
                                   const std::vector<double> &targets,
                                   double floor = 1e-9);

/**
 * Signed mean relative error (pred - target) / |target| in percent.
 *
 * The paper uses its sign to decide whether the MAE-based prediction
 * adjustment should be added or subtracted (Section V-G).
 */
double meanSignedRelativeError(const std::vector<double> &predictions,
                               const std::vector<double> &targets,
                               double floor = 1e-9);

} // namespace geo

#endif // GEO_UTIL_STATS_HH
