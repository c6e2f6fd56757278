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
    Matrix y = layer.forward(x, false);
    EXPECT_DOUBLE_EQ(y.at(0, 0), 321.0);
}

TEST(DenseLayer, ReluClampsNegative)
{
    Rng rng(53);
    DenseLayer layer(1, 1, Activation::ReLU, rng);
    layer.weights().at(0, 0) = 1.0;
    layer.bias().at(0, 0) = 0.0;
    Matrix neg = Matrix::fromRows({{-5.0}});
    EXPECT_DOUBLE_EQ(layer.forward(neg, false).at(0, 0), 0.0);
}

TEST(DenseLayer, BatchRowsIndependent)
{
    Rng rng(54);
    DenseLayer layer(3, 4, Activation::Tanh, rng);
    Matrix x(2, 3);
    x.fillNormal(rng, 1.0);
    Matrix both = layer.forward(x, false);
    Matrix first = layer.forward(x.rowRange(0, 1), false);
    for (size_t c = 0; c < 4; ++c)
        EXPECT_DOUBLE_EQ(both.at(0, c), first.at(0, c));
}

TEST(DenseLayer, CopyingForwardParksATemporaryInputForBackward)
{
    // forward(x, true) may be handed a temporary. backward() runs after
    // it is gone, so it must read the layer's own copies: the gradients
    // have to equal those of forwardInto/backwardInto over buffers that
    // stay alive. A freed block reused by `clobber` would show here,
    // and under ASan any read of the temporary is a use-after-free.
    for (Activation act : {Activation::Linear, Activation::ReLU,
                           Activation::Sigmoid, Activation::Tanh}) {
        SCOPED_TRACE(activationName(act));
        Rng init_parked(59), init_live(59);
        DenseLayer parked(5, 7, act, init_parked);
        DenseLayer live(5, 7, act, init_live);
        Rng data(60);
        Matrix x(9, 5);
        x.fillNormal(data, 1.0);
        Matrix grad(9, 7);
        grad.fillNormal(data, 1.0);

        Matrix y = parked.forward(Matrix(x), true);
        Matrix clobber(9, 5, 1e300);
        Matrix dx = parked.backward(grad);

        Matrix y_live, dx_live;
        live.forwardInto(x, true, y_live);
        live.backwardInto(grad, dx_live);

        EXPECT_EQ(y, y_live);
        EXPECT_EQ(dx, dx_live);
        EXPECT_EQ(parked.weights(), live.weights());
        EXPECT_EQ(*parked.gradients()[0], *live.gradients()[0]);
        EXPECT_EQ(*parked.gradients()[1], *live.gradients()[1]);
        EXPECT_EQ(clobber.at(0, 0), 1e300);
    }
}

TEST(DenseLayer, BackwardParamsAccumulatesWhatBackwardIntoDoes)
{
    // Sequential skips its first layer's input gradient; the parameter
    // gradients must not notice.
    Rng init_a(61), init_b(61);
    DenseLayer full(4, 6, Activation::ReLU, init_a);
    DenseLayer params_only(4, 6, Activation::ReLU, init_b);
    Rng data(62);
    Matrix x(8, 4);
    x.fillNormal(data, 1.0);
    Matrix grad(8, 6);
    grad.fillNormal(data, 1.0);

    Matrix y_full, y_params, dx, unused;
    full.forwardInto(x, true, y_full);
    full.backwardInto(grad, dx);
    params_only.forwardInto(x, true, y_params);
    params_only.backwardParams(grad, unused);

    EXPECT_EQ(*full.gradients()[0], *params_only.gradients()[0]);
    EXPECT_EQ(*full.gradients()[1], *params_only.gradients()[1]);
    EXPECT_TRUE(unused.empty());
}

TEST(DenseLayerDeathTest, WrongInputWidth)
{
    Rng rng(55);
    DenseLayer layer(3, 2, Activation::Linear, rng);
    Matrix x(1, 4);
    EXPECT_DEATH(layer.forward(x, false), "input width");
}

TEST(DenseLayerDeathTest, BackwardWithoutForward)
{
    Rng rng(56);
    DenseLayer layer(3, 2, Activation::Linear, rng);
    Matrix grad(1, 2);
    EXPECT_DEATH(layer.backward(grad), "without");
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
