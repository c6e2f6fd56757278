/**
 * @file
 * Behavioral tests for the recurrent layers (shape handling, windowed
 * input semantics, order sensitivity).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/gru_layer.hh"
#include "nn/lstm_layer.hh"
#include "nn/simple_rnn_layer.hh"
#include "util/random.hh"

namespace geo {
namespace nn {
namespace {

/** Factory for the three recurrent layer types. */
std::unique_ptr<Layer>
makeRecurrent(const std::string &kind, size_t features, size_t steps,
              size_t hidden, Rng &rng)
{
    if (kind == "rnn")
        return std::make_unique<SimpleRnnLayer>(features, steps, hidden,
                                                Activation::Tanh, rng);
    if (kind == "lstm")
        return std::make_unique<LstmLayer>(features, steps, hidden,
                                           Activation::Tanh, rng);
    return std::make_unique<GruLayer>(features, steps, hidden,
                                      Activation::Tanh, rng);
}

class RecurrentLayerTest : public testing::TestWithParam<std::string>
{
};

TEST_P(RecurrentLayerTest, ShapesMatchWindowedInput)
{
    Rng rng(61);
    auto layer = makeRecurrent(GetParam(), 3, 5, 7, rng);
    EXPECT_EQ(layer->inputSize(), 15u);
    EXPECT_EQ(layer->outputSize(), 7u);
    Matrix x(4, 15), y;
    x.fillNormal(rng, 1.0);
    layer->forwardInto(x, false, y);
    EXPECT_EQ(y.rows(), 4u);
    EXPECT_EQ(y.cols(), 7u);
}

TEST_P(RecurrentLayerTest, OutputDependsOnStepOrder)
{
    Rng rng(62);
    auto layer = makeRecurrent(GetParam(), 2, 3, 4, rng);
    Matrix x(1, 6);
    x.fillNormal(rng, 1.0);
    // Swap the first and last timestep blocks.
    Matrix swapped = x;
    for (size_t c = 0; c < 2; ++c) {
        swapped.at(0, c) = x.at(0, 4 + c);
        swapped.at(0, 4 + c) = x.at(0, c);
    }
    Matrix y1, y2;
    layer->forwardInto(x, false, y1);
    layer->forwardInto(swapped, false, y2);
    double diff = 0.0;
    for (size_t c = 0; c < y1.cols(); ++c)
        diff += std::fabs(y1.at(0, c) - y2.at(0, c));
    EXPECT_GT(diff, 1e-9) << "recurrence should be order-sensitive";
}

TEST_P(RecurrentLayerTest, LastStepDominatesWithShortWindow)
{
    // With a single timestep the layer reduces to a feed-forward cell:
    // identical inputs at t=0 give identical outputs.
    Rng rng(63);
    auto layer = makeRecurrent(GetParam(), 4, 1, 3, rng);
    Matrix x(2, 4);
    for (size_t c = 0; c < 4; ++c) {
        x.at(0, c) = 0.3 * static_cast<double>(c);
        x.at(1, c) = 0.3 * static_cast<double>(c);
    }
    Matrix y;
    layer->forwardInto(x, false, y);
    for (size_t c = 0; c < y.cols(); ++c)
        EXPECT_DOUBLE_EQ(y.at(0, c), y.at(1, c));
}

TEST_P(RecurrentLayerTest, WrongWidthPanics)
{
    Rng rng(64);
    auto layer = makeRecurrent(GetParam(), 3, 4, 2, rng);
    Matrix x(1, 11), y;
    EXPECT_DEATH(layer->forwardInto(x, false, y), "input width");
}

TEST_P(RecurrentLayerTest, BackwardWithoutForwardPanics)
{
    Rng rng(65);
    auto layer = makeRecurrent(GetParam(), 2, 2, 2, rng);
    Matrix grad(1, 2), dx;
    EXPECT_DEATH(layer->backwardInto(grad, dx), "without");
}

TEST_P(RecurrentLayerTest, BoundedActivationsStayFinite)
{
    Rng rng(66);
    auto layer = makeRecurrent(GetParam(), 2, 50, 8, rng);
    Matrix x(1, 100), y;
    x.fillNormal(rng, 3.0);
    layer->forwardInto(x, false, y);
    EXPECT_FALSE(y.hasNonFinite());
}

INSTANTIATE_TEST_SUITE_P(Kinds, RecurrentLayerTest,
                         testing::Values("rnn", "lstm", "gru"),
                         [](const auto &info) { return info.param; });

TEST(RecurrentLayerDescribe, Names)
{
    Rng rng(67);
    SimpleRnnLayer rnn(2, 3, 6, Activation::ReLU, rng);
    LstmLayer lstm(2, 3, 6, Activation::ReLU, rng);
    GruLayer gru(2, 3, 6, Activation::ReLU, rng);
    EXPECT_EQ(rnn.describe(), "6 (SimpleRNN) relu");
    EXPECT_EQ(lstm.describe(), "6 (LSTM) relu");
    EXPECT_EQ(gru.describe(), "6 (GRU) relu");
    EXPECT_EQ(rnn.typeName(), "simple_rnn");
    EXPECT_EQ(lstm.typeName(), "lstm");
    EXPECT_EQ(gru.typeName(), "gru");
}

} // namespace
} // namespace nn
} // namespace geo
