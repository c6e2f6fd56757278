/**
 * @file
 * Numerical gradient checks for every layer type: the central
 * correctness property of the from-scratch backpropagation.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "gradcheck.hh"
#include "nn/dense_layer.hh"
#include "nn/gru_layer.hh"
#include "nn/lstm_layer.hh"
#include "nn/simple_rnn_layer.hh"

namespace geo {
namespace nn {
namespace {

struct LayerCase
{
    std::string name;
    std::function<std::unique_ptr<Layer>(Rng &)> build;
    size_t inputWidth;
};

// gtest writes the parameter into every test's listed name. Without a
// printer it dumps the struct's raw bytes, heap pointers included, so
// the names would change from one run of the binary to the next.
void
PrintTo(const LayerCase &layer_case, std::ostream *os)
{
    *os << layer_case.name;
}

class LayerGradCheck : public testing::TestWithParam<LayerCase>
{
};

TEST_P(LayerGradCheck, AnalyticMatchesNumeric)
{
    const LayerCase &layer_case = GetParam();
    Rng rng(1001);
    std::unique_ptr<Layer> layer = layer_case.build(rng);
    ASSERT_EQ(layer->inputSize(), layer_case.inputWidth);

    Matrix input(3, layer_case.inputWidth);
    input.fillNormal(rng, 1.0);
    testutil::checkGradients(*layer, input, 555);
}

TEST_P(LayerGradCheck, GradientsAccumulateAcrossBackwards)
{
    const LayerCase &layer_case = GetParam();
    Rng rng(1002);
    std::unique_ptr<Layer> layer = layer_case.build(rng);

    Matrix input(2, layer_case.inputWidth);
    input.fillNormal(rng, 1.0);
    Matrix out, grad_input;
    layer->forwardInto(input, true, out);
    Matrix grad(out.rows(), out.cols(), 1.0);

    layer->zeroGrad();
    layer->backwardInto(grad, grad_input);
    std::vector<double> once;
    for (Matrix *g : layer->gradients())
        for (double v : g->data())
            once.push_back(v);

    layer->zeroGrad();
    layer->forwardInto(input, true, out);
    layer->backwardInto(grad, grad_input);
    layer->forwardInto(input, true, out);
    layer->backwardInto(grad, grad_input);
    size_t index = 0;
    for (Matrix *g : layer->gradients())
        for (double v : g->data())
            EXPECT_NEAR(v, 2.0 * once[index++], 1e-9);
}

TEST_P(LayerGradCheck, ZeroGradClears)
{
    const LayerCase &layer_case = GetParam();
    Rng rng(1003);
    std::unique_ptr<Layer> layer = layer_case.build(rng);

    Matrix input(1, layer_case.inputWidth);
    input.fillNormal(rng, 1.0);
    Matrix out, grad_input;
    layer->forwardInto(input, true, out);
    layer->backwardInto(Matrix(out.rows(), out.cols(), 1.0), grad_input);
    layer->zeroGrad();
    for (Matrix *g : layer->gradients())
        for (double v : g->data())
            EXPECT_DOUBLE_EQ(v, 0.0);
}

std::vector<LayerCase>
layerCases()
{
    // Smooth activations where possible: ReLU kinks can foil finite
    // differences, so ReLU coverage uses a dedicated dense case whose
    // seed keeps pre-activations away from zero.
    return {
        {"dense_tanh",
         [](Rng &rng) {
             return std::make_unique<DenseLayer>(4, 6, Activation::Tanh,
                                                 rng);
         },
         4},
        {"dense_linear",
         [](Rng &rng) {
             return std::make_unique<DenseLayer>(5, 1, Activation::Linear,
                                                 rng);
         },
         5},
        {"dense_sigmoid",
         [](Rng &rng) {
             return std::make_unique<DenseLayer>(3, 3, Activation::Sigmoid,
                                                 rng);
         },
         3},
        {"dense_relu",
         [](Rng &rng) {
             return std::make_unique<DenseLayer>(4, 8, Activation::ReLU,
                                                 rng);
         },
         4},
        {"simple_rnn_tanh",
         [](Rng &rng) {
             return std::make_unique<SimpleRnnLayer>(3, 4, 5,
                                                     Activation::Tanh, rng);
         },
         12},
        {"lstm_tanh",
         [](Rng &rng) {
             return std::make_unique<LstmLayer>(3, 4, 4, Activation::Tanh,
                                                rng);
         },
         12},
        {"gru_tanh",
         [](Rng &rng) {
             return std::make_unique<GruLayer>(3, 4, 4, Activation::Tanh,
                                               rng);
         },
         12},
        {"lstm_single_step",
         [](Rng &rng) {
             return std::make_unique<LstmLayer>(4, 1, 3, Activation::Tanh,
                                                rng);
         },
         4},
        {"gru_single_step",
         [](Rng &rng) {
             return std::make_unique<GruLayer>(4, 1, 3, Activation::Tanh,
                                               rng);
         },
         4},
    };
}

INSTANTIATE_TEST_SUITE_P(AllLayers, LayerGradCheck,
                         testing::ValuesIn(layerCases()),
                         [](const auto &info) { return info.param.name; });

} // namespace
} // namespace nn
} // namespace geo
