#include "trace/feature_matrix.hh"

#include "util/logging.hh"
#include "util/smoothing.hh"

namespace geo {
namespace trace {

nn::Matrix
buildFeatureMatrix(const std::vector<AccessRecord> &records,
                   const std::vector<std::string> &features)
{
    if (records.empty() || features.empty())
        panic("buildFeatureMatrix: empty records or feature list");
    nn::Matrix out(records.size(), features.size());
    for (size_t r = 0; r < records.size(); ++r)
        for (size_t c = 0; c < features.size(); ++c)
            out.at(r, c) = accessFeature(records[r], features[c]);
    return out;
}

double
PreparedData::denormalizeTarget(double normalized) const
{
    if (!targetNorm.fitted())
        return normalized;
    return targetNorm.inverseValue(normalized, 0);
}

PreparedData
prepareDataset(const std::vector<AccessRecord> &records,
               const std::vector<std::string> &features,
               const PrepareOptions &options)
{
    if (options.window == 0)
        panic("prepareDataset: window must be >= 1");
    if (records.size() < options.window)
        panic("prepareDataset: %zu records < window %zu", records.size(),
              options.window);

    PreparedData prepared;

    nn::Matrix feats = buildFeatureMatrix(records, features);

    // Smooth the target series to remove outliers (Section V-E).
    std::vector<double> tp;
    tp.reserve(records.size());
    for (const AccessRecord &rec : records)
        tp.push_back(rec.throughput());
    if (options.smoothingWindow > 1)
        tp = movingAverage(tp, options.smoothingWindow);
    nn::Matrix targets(records.size(), 1);
    for (size_t r = 0; r < records.size(); ++r)
        targets.at(r, 0) = tp[r];

    if (options.normalize) {
        prepared.featureNorm.fit(feats);
        feats = prepared.featureNorm.transform(feats);
        prepared.targetNorm.fit(targets);
        targets = prepared.targetNorm.transform(targets);
    }

    size_t w = options.window;
    size_t rows = records.size() - w + 1;
    nn::Matrix inputs(rows, feats.cols() * w);
    nn::Matrix aligned(rows, 1);
    for (size_t r = 0; r < rows; ++r) {
        for (size_t t = 0; t < w; ++t)
            inputs.setBlock(r, t * feats.cols(), feats.row(r + t));
        aligned.at(r, 0) = targets.at(r + w - 1, 0);
    }

    prepared.dataset.inputs = std::move(inputs);
    prepared.dataset.targets = std::move(aligned);
    return prepared;
}

} // namespace trace
} // namespace geo
