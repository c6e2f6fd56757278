/**
 * @file
 * Unit and integration tests for the Sequential model and training.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#include "nn/dense_layer.hh"
#include "nn/loss.hh"
#include "nn/model_zoo.hh"
#include "nn/sequential.hh"
#include "util/random.hh"
#include "util/stats.hh"

namespace geo {
namespace nn {
namespace {

Sequential
makeMlp(Rng &rng, size_t in, size_t hidden, Activation hidden_act)
{
    Sequential model;
    model.add(std::make_unique<DenseLayer>(in, hidden, hidden_act, rng));
    model.add(
        std::make_unique<DenseLayer>(hidden, 1, Activation::Linear, rng));
    return model;
}

/** y = 2 x0 - x1 + 0.5, a linear target an MLP must nail. */
Dataset
linearDataset(Rng &rng, size_t n)
{
    Dataset data;
    data.inputs = Matrix(n, 2);
    data.targets = Matrix(n, 1);
    for (size_t i = 0; i < n; ++i) {
        double x0 = rng.uniform(-1.0, 1.0);
        double x1 = rng.uniform(-1.0, 1.0);
        data.inputs.at(i, 0) = x0;
        data.inputs.at(i, 1) = x1;
        data.targets.at(i, 0) = 2.0 * x0 - x1 + 0.5;
    }
    return data;
}

TEST(Sequential, AddChecksWidths)
{
    Rng rng(71);
    Sequential model;
    model.add(std::make_unique<DenseLayer>(2, 4, Activation::Tanh, rng));
    EXPECT_DEATH(model.add(std::make_unique<DenseLayer>(
                     5, 1, Activation::Linear, rng)),
                 "input");
}

TEST(Sequential, SizesAndParameterCount)
{
    Rng rng(72);
    Sequential model = makeMlp(rng, 3, 8, Activation::Tanh);
    EXPECT_EQ(model.inputSize(), 3u);
    EXPECT_EQ(model.outputSize(), 1u);
    EXPECT_EQ(model.layerCount(), 2u);
    EXPECT_EQ(model.parameterCount(), (3u * 8 + 8) + (8u + 1));
}

TEST(Sequential, PredictShape)
{
    Rng rng(73);
    Sequential model = makeMlp(rng, 2, 4, Activation::Tanh);
    Matrix x(5, 2);
    x.fillNormal(rng, 1.0);
    Matrix y = model.predict(x);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 1u);
}

TEST(Sequential, TrainLearnsLinearFunction)
{
    Rng rng(74);
    Sequential model = makeMlp(rng, 2, 16, Activation::Tanh);
    Dataset train = linearDataset(rng, 400);
    Dataset val = linearDataset(rng, 100);

    SgdOptimizer opt(0.05);
    TrainOptions options;
    options.epochs = 150;
    options.batchSize = 32;
    TrainResult result = model.train(train, val, opt, options);

    EXPECT_FALSE(result.diverged);
    ASSERT_FALSE(result.trainLoss.empty());
    EXPECT_LT(result.trainLoss.back(), result.trainLoss.front());
    EXPECT_LT(model.evaluate(val), 0.01);
}

TEST(Sequential, TrainLossDecreasesMonotonicallyOnAverage)
{
    Rng rng(75);
    Sequential model = makeMlp(rng, 2, 8, Activation::Tanh);
    Dataset train = linearDataset(rng, 200);
    SgdOptimizer opt(0.02);
    TrainOptions options;
    options.epochs = 60;
    TrainResult result = model.train(train, {}, opt, options);
    double first_third = 0.0, last_third = 0.0;
    size_t n = result.trainLoss.size();
    for (size_t i = 0; i < n / 3; ++i)
        first_third += result.trainLoss[i];
    for (size_t i = 2 * n / 3; i < n; ++i)
        last_third += result.trainLoss[i];
    EXPECT_LT(last_third, first_third);
}

TEST(Sequential, ShuffledTrainingStillLearns)
{
    Rng rng(77);
    Sequential model = makeMlp(rng, 2, 16, Activation::Tanh);
    Dataset train = linearDataset(rng, 300);
    SgdOptimizer opt(0.05);
    TrainOptions options;
    options.epochs = 100;
    options.shuffle = true;
    options.shuffleSeed = 9;
    TrainResult result = model.train(train, {}, opt, options);
    EXPECT_FALSE(result.diverged);
    EXPECT_LT(model.evaluate(train), 0.01);
}

TEST(Sequential, LooksDivergedOnConstantPredictor)
{
    Rng rng(78);
    Sequential model;
    auto layer =
        std::make_unique<DenseLayer>(2, 1, Activation::Linear, rng);
    // Zero weights + constant bias = constant predictions.
    layer->weights().zero();
    layer->bias().at(0, 0) = 1.0;
    model.add(std::move(layer));

    Dataset probe = linearDataset(rng, 50);
    EXPECT_TRUE(model.looksDiverged(probe));
}

TEST(Sequential, LooksHealthyAfterTraining)
{
    Rng rng(79);
    Sequential model = makeMlp(rng, 2, 8, Activation::Tanh);
    Dataset train = linearDataset(rng, 200);
    SgdOptimizer opt(0.05);
    TrainOptions options;
    options.epochs = 50;
    model.train(train, {}, opt, options);
    EXPECT_FALSE(model.looksDiverged(train));
}

/** Row counts around the forward chunk, and a 12,000-row window's
 *  validation split. */
const size_t kChunkEdges[] = {1, Sequential::kForwardChunk - 1,
                              Sequential::kForwardChunk,
                              Sequential::kForwardChunk + 1, 2400};

Dataset
randomDataset(Rng &rng, size_t rows, size_t width)
{
    Dataset data;
    data.inputs = Matrix(rows, width);
    data.inputs.fillNormal(rng, 0.5);
    data.targets = Matrix(rows, 1);
    data.targets.fillNormal(rng, 1.0);
    return data;
}

/** looksDiverged's rule over the statistics of one full predict(). */
bool
oneShotLooksDiverged(Sequential &model, const Dataset &probe)
{
    Matrix predictions = model.predict(probe.inputs);
    if (predictions.hasNonFinite())
        return true;
    StatAccumulator pred_stats, target_stats;
    for (double v : predictions.data())
        pred_stats.add(v);
    for (double v : probe.targets.data())
        target_stats.add(v);
    if (target_stats.stddev() <= 0.0)
        return false;
    return pred_stats.stddev() <
           1e-6 * (std::fabs(pred_stats.mean()) + 1.0);
}

TEST(Sequential, ChunkedEvaluateMatchesOneShotBitwise)
{
    Rng rng(83);
    Sequential model = buildModel(1, 6, rng); // the live engine's model
    for (size_t rows : kChunkEdges) {
        Dataset data = randomDataset(rng, rows, model.inputSize());
        double reference =
            MseLoss::value(model.predict(data.inputs), data.targets);
        double chunked = model.evaluate(data);
        EXPECT_EQ(std::bit_cast<uint64_t>(chunked),
                  std::bit_cast<uint64_t>(reference))
            << rows << " rows: " << chunked << " vs " << reference;
    }
}

TEST(Sequential, ChunkedLooksDivergedMatchesOneShot)
{
    Rng rng(84);
    Sequential model = buildModel(1, 6, rng);
    for (size_t rows : kChunkEdges) {
        Dataset data = randomDataset(rng, rows, model.inputSize());
        EXPECT_FALSE(model.looksDiverged(data)) << rows << " rows";
        EXPECT_FALSE(oneShotLooksDiverged(model, data));
    }

    // Collapsed: a zeroed output layer predicts its bias everywhere.
    auto &out = dynamic_cast<DenseLayer &>(
        model.layer(model.layerCount() - 1));
    out.weights().zero();
    for (size_t rows : kChunkEdges) {
        Dataset data = randomDataset(rng, rows, model.inputSize());
        EXPECT_EQ(model.looksDiverged(data), rows > 1) << rows << " rows";
        EXPECT_EQ(oneShotLooksDiverged(model, data), rows > 1);
    }

    // A non-finite prediction in the last row of the last chunk (tanh
    // carries a NaN input through; ReLU would zero it).
    Sequential smooth = makeMlp(rng, 6, 8, Activation::Tanh);
    for (size_t rows : kChunkEdges) {
        Dataset data = randomDataset(rng, rows, smooth.inputSize());
        data.inputs.at(rows - 1, 0) =
            std::numeric_limits<double>::quiet_NaN();
        EXPECT_TRUE(smooth.looksDiverged(data)) << rows << " rows";
        EXPECT_TRUE(oneShotLooksDiverged(smooth, data));
    }
}

TEST(Sequential, TrainBatchReturnsLoss)
{
    Rng rng(80);
    Sequential model = makeMlp(rng, 2, 4, Activation::Tanh);
    Dataset data = linearDataset(rng, 16);
    SgdOptimizer opt(0.01);
    double loss1 = model.trainBatch(data.inputs, data.targets, opt);
    double loss2 = model.trainBatch(data.inputs, data.targets, opt);
    EXPECT_GT(loss1, 0.0);
    EXPECT_LT(loss2, loss1);
}

TEST(SequentialDeathTest, EmptyModelPanics)
{
    Sequential model;
    EXPECT_DEATH(model.inputSize(), "empty");
}

TEST(SequentialDeathTest, TrainEmptyDataset)
{
    Rng rng(81);
    Sequential model = makeMlp(rng, 2, 4, Activation::Tanh);
    SgdOptimizer opt(0.01);
    EXPECT_DEATH(model.train({}, {}, opt, {}), "empty");
}

TEST(Sequential, DescribeListsLayers)
{
    Rng rng(82);
    Sequential model = makeMlp(rng, 2, 4, Activation::ReLU);
    EXPECT_EQ(model.describe(), "4 (Dense) relu, 1 (Dense) linear");
}

} // namespace
} // namespace nn
} // namespace geo
