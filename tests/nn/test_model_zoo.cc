/**
 * @file
 * Tests for the 23-architecture model zoo of Table I.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "nn/model_zoo.hh"
#include "util/random.hh"

namespace geo {
namespace nn {
namespace {

TEST(ModelZoo, SpecCount)
{
    EXPECT_EQ(allModelSpecs(6).size(), 23u);
}

TEST(ModelZoo, Model1MatchesPaper)
{
    ModelSpec spec = modelSpec(1, 6);
    EXPECT_EQ(spec.components,
              "96 (Dense) ReLU, 48 (Dense) ReLU, 24 (Dense) ReLU, "
              "1 (Dense) Linear");
    EXPECT_FALSE(spec.recurrent);
}

TEST(ModelZoo, Model18MatchesPaper)
{
    ModelSpec spec = modelSpec(18, 6);
    EXPECT_EQ(spec.components,
              "6 (SimpleRNN) ReLU, 24 (Dense) ReLU, 6 (Dense) ReLU, "
              "1 (Dense) Linear");
    EXPECT_TRUE(spec.recurrent);
}

TEST(ModelZoo, RecurrentFlagsMatchTable)
{
    for (int number = 1; number <= 11; ++number)
        EXPECT_FALSE(modelSpec(number, 6).recurrent) << number;
    for (int number = 12; number <= 23; ++number)
        EXPECT_TRUE(modelSpec(number, 6).recurrent) << number;
}

TEST(ModelZooDeathTest, OutOfRange)
{
    EXPECT_DEATH(modelSpec(0, 6), "out of");
    EXPECT_DEATH(modelSpec(24, 6), "out of");
}

TEST(ModelZoo, InputWidths)
{
    // Dense models take one access (z); recurrent ones a window of
    // `timesteps` accesses (z * timesteps).
    Rng rng(50);
    EXPECT_EQ(buildModel(1, 6, rng).inputSize(), 6u);
    EXPECT_EQ(buildModel(12, 6, rng, 8).inputSize(), 48u);
    EXPECT_EQ(buildModel(14, 13, rng, 4).inputSize(), 52u);
}

/** Parameterized sweep: every zoo model builds and runs forward. */
class ModelZooBuildTest : public testing::TestWithParam<int>
{
};

TEST_P(ModelZooBuildTest, BuildsAndPredicts)
{
    int number = GetParam();
    Rng rng(100 + static_cast<uint64_t>(number));
    const size_t z = 6;
    const size_t steps = 4;
    Sequential model = buildModel(number, z, rng, steps);
    EXPECT_EQ(model.outputSize(), 1u);
    EXPECT_EQ(model.inputSize(),
              modelSpec(number, z).recurrent ? z * steps : z);

    Matrix x(3, model.inputSize());
    x.fillNormal(rng, 0.5);
    Matrix y = model.predict(x);
    EXPECT_EQ(y.rows(), 3u);
    EXPECT_EQ(y.cols(), 1u);
    EXPECT_FALSE(y.hasNonFinite());
}

TEST_P(ModelZooBuildTest, TrainableOneStep)
{
    int number = GetParam();
    Rng rng(200 + static_cast<uint64_t>(number));
    Sequential model = buildModel(number, 6, rng, 4);
    Matrix x(8, model.inputSize());
    x.fillNormal(rng, 0.5);
    Matrix t(8, 1, 0.5);
    SgdOptimizer opt(0.001, 1.0);
    double loss = model.trainBatch(x, t, opt);
    EXPECT_TRUE(std::isfinite(loss));
}

INSTANTIATE_TEST_SUITE_P(All23, ModelZooBuildTest, testing::Range(1, 24));

TEST(ModelZoo, DifferentZScalesWidth)
{
    ModelSpec z6 = modelSpec(1, 6);
    ModelSpec z13 = modelSpec(1, 13);
    EXPECT_NE(z6.components, z13.components);
    EXPECT_NE(z13.components.find("208 (Dense)"), std::string::npos);
}

TEST(ModelZoo, AmbiguousPairsDifferInDepth)
{
    // Table I prints 8/9 and 10/11 identically; our resolution gives
    // the lower-numbered model the deeper stack (see DESIGN.md).
    Rng rng(300);
    Sequential m8 = buildModel(8, 6, rng);
    Sequential m9 = buildModel(9, 6, rng);
    Sequential m10 = buildModel(10, 6, rng);
    Sequential m11 = buildModel(11, 6, rng);
    EXPECT_GT(m8.layerCount(), m9.layerCount());
    EXPECT_GT(m10.layerCount(), m11.layerCount());
}

} // namespace
} // namespace nn
} // namespace geo
