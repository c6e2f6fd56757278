/**
 * @file
 * Unit tests for the dense layer.
 */

#include <gtest/gtest.h>

#include "nn/dense_layer.hh"
#include "util/random.hh"

namespace geo {
namespace nn {
namespace {

TEST(DenseLayer, ShapesAndDescribe)
{
    Rng rng(51);
    DenseLayer layer(6, 96, Activation::ReLU, rng);
    EXPECT_EQ(layer.inputSize(), 6u);
    EXPECT_EQ(layer.outputSize(), 96u);
    EXPECT_EQ(layer.describe(), "96 (Dense) relu");
    EXPECT_EQ(layer.typeName(), "dense");
    EXPECT_EQ(layer.parameterCount(), 6u * 96u + 96u);
}

TEST(DenseLayer, ForwardComputesAffineThenActivation)
{
    Rng rng(52);
    DenseLayer layer(2, 1, Activation::Linear, rng);
    // Overwrite weights for a known computation: y = 2a + 3b + 1.
    layer.weights().at(0, 0) = 2.0;
    layer.weights().at(1, 0) = 3.0;
    layer.bias().at(0, 0) = 1.0;
    Matrix x = Matrix::fromRows({{10.0, 100.0}});
    Matrix y;
    layer.forwardInto(x, false, y);
    EXPECT_DOUBLE_EQ(y.at(0, 0), 321.0);
}

TEST(DenseLayer, ReluClampsNegative)
{
    Rng rng(53);
    DenseLayer layer(1, 1, Activation::ReLU, rng);
    layer.weights().at(0, 0) = 1.0;
    layer.bias().at(0, 0) = 0.0;
    Matrix neg = Matrix::fromRows({{-5.0}});
    Matrix y;
    layer.forwardInto(neg, false, y);
    EXPECT_DOUBLE_EQ(y.at(0, 0), 0.0);
}

TEST(DenseLayer, BatchRowsIndependent)
{
    Rng rng(54);
    DenseLayer layer(3, 4, Activation::Tanh, rng);
    Matrix x(2, 3);
    x.fillNormal(rng, 1.0);
    Matrix both, first;
    layer.forwardInto(x, false, both);
    layer.forwardInto(x.rowRange(0, 1), false, first);
    for (size_t c = 0; c < 4; ++c)
        EXPECT_DOUBLE_EQ(both.at(0, c), first.at(0, c));
}

TEST(DenseLayer, RowRangesAccumulateWhatBackwardIntoDoes)
{
    // A training team runs the layer in row slices, skips the first
    // layer's input gradient and splits the parameter gradients into
    // shares; every bit must match the whole-batch pair.
    Rng init_a(61), init_b(61);
    DenseLayer full(4, 6, Activation::ReLU, init_a);
    DenseLayer split(4, 6, Activation::ReLU, init_b);
    Rng data(62);
    Matrix x(8, 4);
    x.fillNormal(data, 1.0);
    Matrix grad(8, 6);
    grad.fillNormal(data, 1.0);

    Matrix y_full, dx;
    full.forwardInto(x, true, y_full);
    full.backwardInto(grad, dx);

    const size_t cuts[] = {0, 3, 3, 8}; // an empty slice too
    Matrix y_split(8, 6), grad_pre = grad, dx_split(8, 4);
    for (size_t s = 0; s + 1 < 4; ++s)
        split.forwardRows(x, y_split, cuts[s], cuts[s + 1]);
    for (size_t s = 0; s + 1 < 4; ++s) {
        split.backwardRows(y_split, grad_pre, grad_pre, nullptr, cuts[s],
                           cuts[s + 1]);
        split.backwardRows(y_split, grad, grad_pre, &dx_split, cuts[s],
                           cuts[s + 1]);
    }
    for (size_t share = 0; share < 3; ++share)
        split.accumulateGradients(x, grad_pre, share, 3);

    EXPECT_EQ(y_split, y_full);
    EXPECT_EQ(dx_split, dx);
    EXPECT_EQ(*full.gradients()[0], *split.gradients()[0]);
    EXPECT_EQ(*full.gradients()[1], *split.gradients()[1]);
}

TEST(DenseLayerDeathTest, WrongInputWidth)
{
    Rng rng(55);
    DenseLayer layer(3, 2, Activation::Linear, rng);
    Matrix x(1, 4), y;
    EXPECT_DEATH(layer.forwardInto(x, false, y), "input width");
}

TEST(DenseLayerDeathTest, BackwardWithoutForward)
{
    Rng rng(56);
    DenseLayer layer(3, 2, Activation::Linear, rng);
    Matrix grad(1, 2), dx;
    EXPECT_DEATH(layer.backwardInto(grad, dx), "without");
}

TEST(DenseLayerDeathTest, ZeroDimension)
{
    Rng rng(57);
    EXPECT_DEATH(DenseLayer(0, 2, Activation::Linear, rng), "zero");
}

TEST(DenseLayer, DeterministicInitWithSameSeed)
{
    Rng rng1(58), rng2(58);
    DenseLayer a(4, 4, Activation::ReLU, rng1);
    DenseLayer b(4, 4, Activation::ReLU, rng2);
    EXPECT_EQ(a.weights(), b.weights());
}

} // namespace
} // namespace nn
} // namespace geo
