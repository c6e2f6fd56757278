/**
 * @file
 * Property-style sweeps over the model zoo: every non-divergent
 * architecture must be able to fit a learnable synthetic mapping, and
 * training must respect basic invariants (finite losses, parameter
 * movement, reproducibility under fixed seeds).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/model_zoo.hh"
#include "util/random.hh"

namespace geo {
namespace nn {
namespace {

/** Smooth learnable target over Z = 6 inputs in [0,1]. */
Dataset
syntheticDataset(Rng &rng, size_t n, size_t width)
{
    Dataset data;
    data.inputs = Matrix(n, width);
    data.targets = Matrix(n, 1);
    for (size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (size_t c = 0; c < width; ++c) {
            double v = rng.uniform();
            data.inputs.at(i, c) = v;
            acc += (c % 2 ? -0.5 : 1.0) * v;
        }
        data.targets.at(i, 0) =
            0.5 + 0.3 * std::sin(acc) + 0.1 * acc / static_cast<double>(width);
    }
    return data;
}

class ZooTrainingTest : public testing::TestWithParam<int>
{
};

TEST_P(ZooTrainingTest, LossDropsOnLearnableTarget)
{
    int number = GetParam();
    Rng rng(4000 + static_cast<uint64_t>(number));
    Sequential model = buildModel(number, 6, rng, 4);
    Dataset data = syntheticDataset(rng, 400, model.inputSize());

    SgdOptimizer opt(0.02, 2.0);
    TrainOptions options;
    options.epochs = 40;
    options.shuffle = true;
    TrainResult result = model.train(data, {}, opt, options);
    if (result.diverged || model.looksDiverged(data)) {
        // Collapsed all-ReLU stacks are a real phenomenon — they are
        // the paper's "Diverged" Table II rows — not a test failure.
        GTEST_SKIP() << "architecture diverged (allowed, as in Table II)";
    }
    ASSERT_GE(result.trainLoss.size(), 2u);
    EXPECT_LT(result.trainLoss.back(), result.trainLoss.front())
        << "model " << number << " failed to reduce training loss";
    for (double loss : result.trainLoss)
        EXPECT_TRUE(std::isfinite(loss));
}

TEST_P(ZooTrainingTest, TrainingMovesParameters)
{
    int number = GetParam();
    Rng rng(5000 + static_cast<uint64_t>(number));
    Sequential model = buildModel(number, 6, rng, 4);
    Dataset data = syntheticDataset(rng, 64, model.inputSize());

    std::vector<double> before;
    for (Matrix *p : model.parameters())
        for (double v : p->data())
            before.push_back(v);

    SgdOptimizer opt(0.01, 2.0);
    model.trainBatch(data.inputs, data.targets, opt);

    double delta = 0.0;
    size_t index = 0;
    for (Matrix *p : model.parameters())
        for (double v : p->data())
            delta += std::fabs(v - before[index++]);
    if (delta == 0.0 && model.looksDiverged(data)) {
        // A dead all-ReLU network legitimately has zero gradient.
        GTEST_SKIP() << "dead ReLU stack (no gradient to apply)";
    }
    EXPECT_GT(delta, 0.0) << "no parameter moved for model " << number;
}

TEST_P(ZooTrainingTest, DeterministicTrainingUnderFixedSeeds)
{
    int number = GetParam();
    auto train_once = [number]() {
        Rng rng(6000 + static_cast<uint64_t>(number));
        Sequential model = buildModel(number, 6, rng, 4);
        Rng data_rng(77);
        Dataset data = syntheticDataset(data_rng, 128, model.inputSize());
        SgdOptimizer opt(0.01, 2.0);
        TrainOptions options;
        options.epochs = 5;
        model.train(data, {}, opt, options);
        return model.predict(data.inputs.rowRange(0, 4));
    };
    Matrix a = train_once();
    Matrix b = train_once();
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_DOUBLE_EQ(a.data()[i], b.data()[i]);
}

INSTANTIATE_TEST_SUITE_P(All23, ZooTrainingTest, testing::Range(1, 24));

} // namespace
} // namespace nn
} // namespace geo
