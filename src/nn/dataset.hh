/**
 * @file
 * Supervised datasets and the paper's 60/20/20 chronological split.
 */

#ifndef GEO_NN_DATASET_HH
#define GEO_NN_DATASET_HH

#include <cstddef>

#include "nn/matrix.hh"

namespace geo {
namespace nn {

/**
 * A supervised dataset: one input row per example, aligned targets.
 */
struct Dataset
{
    Matrix inputs;  ///< examples x features
    Matrix targets; ///< examples x outputs (usually 1)

    size_t size() const { return inputs.rows(); }
    bool empty() const { return inputs.rows() == 0; }

    /** Row slice [begin, end) of both inputs and targets. */
    Dataset slice(size_t begin, size_t end) const;
};

/**
 * Train / validation / test partition.
 */
struct DataSplit
{
    Dataset train;
    Dataset validation;
    Dataset test;
};

/**
 * Split chronologically: first `train_frac` for training, next
 * `val_frac` for validation, rest for testing. The paper uses 60/20/20
 * with no shuffling (throughput modeling is a time-series problem, so
 * training on the past and testing on the future is the honest split).
 */
DataSplit chronologicalSplit(const Dataset &data, double train_frac = 0.6,
                             double val_frac = 0.2);

/** chronologicalSplit() into `out`, reusing the capacity of its three
 *  datasets: a caller that keeps `out` across calls allocates nothing
 *  once the shapes stop growing (the retrain hot path). */
void chronologicalSplitInto(const Dataset &data, double train_frac,
                            double val_frac, DataSplit &out);

} // namespace nn
} // namespace geo

#endif // GEO_NN_DATASET_HH
