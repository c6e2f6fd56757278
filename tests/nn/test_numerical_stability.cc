/**
 * @file
 * Numerical-robustness tests: the training stack must stay finite
 * under hostile inputs (huge magnitudes, constant columns, long
 * recurrences, aggressive learning rates with clipping).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/lstm_layer.hh"
#include "nn/model_zoo.hh"
#include "trace/normalizer.hh"
#include "util/random.hh"

namespace geo {
namespace nn {
namespace {

TEST(NumericalStability, HugeInputsThroughNormalizerStayFinite)
{
    // Raw throughputs span ~10 orders of magnitude; after min-max
    // normalization the network must behave.
    Rng rng(901);
    Matrix raw(256, 6);
    for (size_t r = 0; r < raw.rows(); ++r)
        for (size_t c = 0; c < raw.cols(); ++c)
            raw.at(r, c) = rng.logNormal(10.0, 5.0);
    trace::MinMaxNormalizer norm;
    norm.fit(raw);
    Matrix inputs = norm.transform(raw);

    Sequential model = buildModel(1, 6, rng);
    Matrix out = model.predict(inputs);
    EXPECT_FALSE(out.hasNonFinite());
}

TEST(NumericalStability, ClippedSgdSurvivesAggressiveLearningRate)
{
    Rng rng(902);
    Sequential model = buildModel(4, 6, rng);
    Matrix inputs(64, 6);
    inputs.fillNormal(rng, 1.0);
    Matrix targets(64, 1, 0.5);
    SgdOptimizer opt(/*lr=*/5.0, /*clip_norm=*/1.0);
    for (int step = 0; step < 50; ++step) {
        double loss = model.trainBatch(inputs, targets, opt);
        ASSERT_TRUE(std::isfinite(loss)) << "step " << step;
    }
}

TEST(NumericalStability, UnclippedAggressiveSgdDegrades)
{
    // The control for the clipping test: without clipping, the same
    // aggressive learning rate either blows up to non-finite values
    // or kills the network (constant predictions) — either way the
    // model is unusable, which is why the engine clips.
    Rng rng(903);
    Sequential model = buildModel(4, 6, rng);
    Matrix inputs(64, 6);
    inputs.fillNormal(rng, 1.0);
    Dataset probe;
    probe.inputs = inputs;
    probe.targets = Matrix(64, 1);
    Rng target_rng(9031);
    for (size_t r = 0; r < 64; ++r)
        probe.targets.at(r, 0) = target_rng.uniform();
    SgdOptimizer opt(/*lr=*/100.0, /*clip_norm=*/0.0);
    bool exploded = false;
    for (int step = 0; step < 100 && !exploded; ++step) {
        exploded = !std::isfinite(
            model.trainBatch(probe.inputs, probe.targets, opt));
    }
    EXPECT_TRUE(exploded || model.looksDiverged(probe));
}

TEST(NumericalStability, LongLstmRecurrenceStaysFinite)
{
    Rng rng(904);
    LstmLayer lstm(2, 200, 8, Activation::Tanh, rng);
    Matrix input(2, 400);
    input.fillNormal(rng, 2.0);
    Matrix out, grad_in;
    lstm.forwardInto(input, true, out);
    EXPECT_FALSE(out.hasNonFinite());
    Matrix grad(2, 8, 1.0);
    lstm.backwardInto(grad, grad_in);
    EXPECT_FALSE(grad_in.hasNonFinite());
}

TEST(NumericalStability, ConstantColumnsDoNotPoisonTraining)
{
    // fsid is constant in per-mount telemetry; such columns normalize
    // to 0.5 and must not destabilize anything.
    Rng rng(905);
    Matrix raw(128, 6);
    for (size_t r = 0; r < raw.rows(); ++r) {
        for (size_t c = 0; c < 5; ++c)
            raw.at(r, c) = rng.uniform();
        raw.at(r, 5) = 3.0; // constant
    }
    trace::MinMaxNormalizer norm;
    norm.fit(raw);
    Matrix inputs = norm.transform(raw);
    for (size_t r = 0; r < inputs.rows(); ++r)
        EXPECT_DOUBLE_EQ(inputs.at(r, 5), 0.5);

    Dataset data;
    data.inputs = inputs;
    data.targets = Matrix(128, 1, 0.25);
    Sequential model = buildModel(1, 6, rng);
    SgdOptimizer opt(0.05, 5.0);
    TrainOptions options;
    options.epochs = 10;
    TrainResult result = model.train(data, {}, opt, options);
    EXPECT_FALSE(result.diverged);
}

TEST(NumericalStability, ZeroInputBatch)
{
    Rng rng(906);
    Sequential model = buildModel(1, 6, rng);
    Matrix zeros(8, 6);
    Matrix out = model.predict(zeros);
    EXPECT_FALSE(out.hasNonFinite());
}

} // namespace
} // namespace nn
} // namespace geo
