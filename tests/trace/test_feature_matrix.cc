/**
 * @file
 * Tests for training-matrix assembly (smoothing, normalizing,
 * windowing).
 */

#include <gtest/gtest.h>

#include "trace/eos_trace_gen.hh"
#include "trace/feature_matrix.hh"
#include "trace/feature_select.hh"

namespace geo {
namespace trace {
namespace {

std::vector<AccessRecord>
sampleTrace(size_t n = 300)
{
    EosTraceGenerator gen({});
    return gen.generate(n);
}

TEST(FeatureMatrix, Shape)
{
    std::vector<AccessRecord> records = sampleTrace(100);
    nn::Matrix m = buildFeatureMatrix(records, paperSelectedFeatures());
    EXPECT_EQ(m.rows(), 100u);
    EXPECT_EQ(m.cols(), 6u);
}

TEST(FeatureMatrix, ValuesMatchExtractor)
{
    std::vector<AccessRecord> records = sampleTrace(20);
    std::vector<std::string> features = {"rb", "fid"};
    nn::Matrix m = buildFeatureMatrix(records, features);
    for (size_t r = 0; r < records.size(); ++r) {
        EXPECT_DOUBLE_EQ(m.at(r, 0),
                         static_cast<double>(records[r].rb));
        EXPECT_DOUBLE_EQ(m.at(r, 1),
                         static_cast<double>(records[r].fid));
    }
}

TEST(FeatureMatrix, ThroughputTargets)
{
    // Unsmoothed, unnormalized, one row per access: the target column
    // is each record's throughput.
    std::vector<AccessRecord> records = sampleTrace(50);
    PrepareOptions options;
    options.smoothingWindow = 1;
    options.normalize = false;
    nn::Matrix targets =
        prepareDataset(records, {"rb"}, options).dataset.targets;
    EXPECT_EQ(targets.rows(), 50u);
    EXPECT_EQ(targets.cols(), 1u);
    for (size_t r = 0; r < records.size(); ++r)
        EXPECT_DOUBLE_EQ(targets.at(r, 0), records[r].throughput());
}

TEST(PrepareDataset, NormalizedToUnitInterval)
{
    PreparedData prepared =
        prepareDataset(sampleTrace(), paperSelectedFeatures());
    for (double v : prepared.dataset.inputs.data()) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
    for (double v : prepared.dataset.targets.data()) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(PrepareDataset, WindowShrinksRowCount)
{
    PrepareOptions options;
    options.window = 8;
    PreparedData prepared =
        prepareDataset(sampleTrace(100), paperSelectedFeatures(), options);
    EXPECT_EQ(prepared.dataset.size(), 100u - 8 + 1);
    EXPECT_EQ(prepared.dataset.inputs.cols(), 6u * 8);
}

TEST(PrepareDataset, WindowOneKeepsAllRows)
{
    PrepareOptions options;
    options.window = 1;
    PreparedData prepared =
        prepareDataset(sampleTrace(100), paperSelectedFeatures(), options);
    EXPECT_EQ(prepared.dataset.size(), 100u);
}

TEST(PrepareDataset, WindowRowsAreConsecutiveRecords)
{
    std::vector<AccessRecord> records = sampleTrace(40);
    PrepareOptions options;
    options.window = 3;
    options.normalize = false;
    options.smoothingWindow = 1;
    PreparedData prepared =
        prepareDataset(records, {"rb"}, options);
    // Row r = [rb[r], rb[r+1], rb[r+2]], target = throughput[r+2].
    for (size_t r = 0; r + 3 <= records.size(); ++r) {
        EXPECT_DOUBLE_EQ(prepared.dataset.inputs.at(r, 0),
                         static_cast<double>(records[r].rb));
        EXPECT_DOUBLE_EQ(prepared.dataset.inputs.at(r, 2),
                         static_cast<double>(records[r + 2].rb));
        EXPECT_DOUBLE_EQ(prepared.dataset.targets.at(r, 0),
                         records[r + 2].throughput());
    }
}

TEST(PrepareDataset, SmoothingReducesTargetVariance)
{
    std::vector<AccessRecord> records = sampleTrace(2000);
    PrepareOptions rough;
    rough.smoothingWindow = 1;
    rough.normalize = false;
    PrepareOptions smooth;
    smooth.smoothingWindow = 16;
    smooth.normalize = false;

    auto variance = [](const nn::Matrix &m) {
        double mean = 0.0;
        for (double v : m.data())
            mean += v;
        mean /= static_cast<double>(m.size());
        double var = 0.0;
        for (double v : m.data())
            var += (v - mean) * (v - mean);
        return var / static_cast<double>(m.size());
    };

    double rough_var = variance(
        prepareDataset(records, {"rb"}, rough).dataset.targets);
    double smooth_var = variance(
        prepareDataset(records, {"rb"}, smooth).dataset.targets);
    EXPECT_LT(smooth_var, rough_var);
}

TEST(PrepareDataset, DenormalizeTargetRoundTrips)
{
    PreparedData prepared =
        prepareDataset(sampleTrace(), paperSelectedFeatures());
    double normalized = prepared.dataset.targets.at(10, 0);
    double raw = prepared.denormalizeTarget(normalized);
    EXPECT_GE(raw, prepared.targetNorm.columnMin(0));
    EXPECT_LE(raw, prepared.targetNorm.columnMax(0));
}

TEST(PrepareDatasetDeathTest, WindowLargerThanData)
{
    PrepareOptions options;
    options.window = 200;
    EXPECT_DEATH(
        prepareDataset(sampleTrace(100), paperSelectedFeatures(), options),
        "window");
}

TEST(PrepareDatasetDeathTest, ZeroWindow)
{
    PrepareOptions options;
    options.window = 0;
    EXPECT_DEATH(
        prepareDataset(sampleTrace(10), paperSelectedFeatures(), options),
        "window");
}

} // namespace
} // namespace trace
} // namespace geo
