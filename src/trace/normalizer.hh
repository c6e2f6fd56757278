/**
 * @file
 * Min-max normalization of feature columns (paper Section V-E).
 *
 * The Interface Daemon normalizes numerical training data to [0, 1]
 * before it reaches the DRL engine. The normalizer remembers per-column
 * ranges so later batches (and predictions) can be transformed with the
 * ranges learned from the training window, and targets can be
 * denormalized back to physical throughput.
 */

#ifndef GEO_TRACE_NORMALIZER_HH
#define GEO_TRACE_NORMALIZER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "nn/matrix.hh"

namespace geo {
namespace trace {

/**
 * Per-column min-max scaler to [0, 1].
 *
 * Constant columns map to 0.5 (no information, centered), matching the
 * convention that a feature with zero variance contributes nothing.
 *
 * Non-finite inputs are rejected, not folded: a single NaN would
 * otherwise poison the running min/max for the rest of the run (every
 * later fold against NaN stays NaN). Rejected values are counted; a
 * column that never sees a finite value keeps the (+inf, -inf) fold
 * identities and normalizes like a constant column (0.5).
 */
class MinMaxNormalizer
{
  public:
    /** Learn column ranges from `data` (finite values only). */
    void fit(const nn::Matrix &data);

    /** Widen ranges to also cover `data` (for incremental refit). */
    void update(const nn::Matrix &data);

    /** Scale columns into [0, 1]; requires fit() first. */
    nn::Matrix transform(const nn::Matrix &data) const;

    /** Scalar denormalization for column `col` (inverse of value()). */
    double inverseValue(double normalized, size_t col) const;

    /** Scalar normalization for column `col`. */
    double value(double raw, size_t col) const;

    bool fitted() const { return !mins_.empty(); }
    size_t columns() const { return mins_.size(); }
    double columnMin(size_t col) const { return mins_.at(col); }
    double columnMax(size_t col) const { return maxs_.at(col); }

    /** Non-finite inputs rejected by fit/update over this instance's
     *  lifetime (copies inherit the count at copy time). */
    uint64_t rejectedNonFinite() const { return rejectedNonFinite_; }

    /** Restore previously learned ranges (checkpoint restore). */
    void
    restore(std::vector<double> mins, std::vector<double> maxs)
    {
        mins_ = std::move(mins);
        maxs_ = std::move(maxs);
    }

  private:
    std::vector<double> mins_;
    std::vector<double> maxs_;
    uint64_t rejectedNonFinite_ = 0;
};

} // namespace trace
} // namespace geo

#endif // GEO_TRACE_NORMALIZER_HH
