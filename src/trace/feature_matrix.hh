/**
 * @file
 * Assembly of training matrices from access records.
 *
 * This is the Interface Daemon's data-preparation pipeline (paper
 * Section V-E): select features, smooth the target throughput with a
 * moving average, normalize everything to [0, 1], and (for recurrent
 * models) concatenate a sliding window of past accesses per row.
 */

#ifndef GEO_TRACE_FEATURE_MATRIX_HH
#define GEO_TRACE_FEATURE_MATRIX_HH

#include <string>
#include <vector>

#include "nn/dataset.hh"
#include "trace/access_record.hh"
#include "trace/normalizer.hh"

namespace geo {
namespace trace {

/** Options for dataset preparation. */
struct PrepareOptions
{
    /** Sliding-window length; 1 = plain per-access rows (dense models),
     *  > 1 = concatenated past accesses (recurrent models). */
    size_t window = 1;

    /** Moving-average window applied to the target throughput series
     *  (paper Section V-E); 1 disables smoothing. */
    size_t smoothingWindow = 8;

    /** Normalize features and targets to [0, 1]. */
    bool normalize = true;
};

/**
 * A dataset plus the normalizers needed to interpret predictions.
 */
struct PreparedData
{
    nn::Dataset dataset;
    MinMaxNormalizer featureNorm; ///< fitted over single-access columns
    MinMaxNormalizer targetNorm;  ///< fitted over the throughput column

    /** Denormalize a predicted target back to bytes/s. */
    double denormalizeTarget(double normalized) const;
};

/**
 * Raw feature matrix: one row per record, one column per feature name.
 */
nn::Matrix buildFeatureMatrix(const std::vector<AccessRecord> &records,
                              const std::vector<std::string> &features);

/**
 * Full pipeline: features -> smoothing -> normalization -> windowing.
 *
 * With window W, row i of the result covers records [i, i+W) and its
 * target is the (smoothed) throughput of record i+W-1; the dataset has
 * records.size() - W + 1 rows.
 */
PreparedData prepareDataset(const std::vector<AccessRecord> &records,
                            const std::vector<std::string> &features,
                            const PrepareOptions &options = {});

} // namespace trace
} // namespace geo

#endif // GEO_TRACE_FEATURE_MATRIX_HH
