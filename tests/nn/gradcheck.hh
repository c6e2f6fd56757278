/**
 * @file
 * Shared numerical gradient-check helper for layer tests.
 *
 * Defines the scalar loss L = sum(W_out . forward(x)) for a fixed
 * random weighting W_out, computes dL/dparam and dL/dinput by central
 * finite differences, and compares against the layer's backward pass.
 */

#ifndef GEO_TESTS_NN_GRADCHECK_HH
#define GEO_TESTS_NN_GRADCHECK_HH

#include <gtest/gtest.h>

#include <cmath>

#include "nn/layer.hh"
#include "util/random.hh"

namespace geo {
namespace nn {
namespace testutil {

/** Weighted-sum loss of the layer output (fixed weights). */
inline double
lossOf(Layer &layer, const Matrix &input, const Matrix &weights)
{
    Matrix out;
    layer.forwardInto(input, /*training=*/false, out);
    double loss = 0.0;
    for (size_t i = 0; i < out.size(); ++i)
        loss += out.data()[i] * weights.data()[i];
    return loss;
}

/**
 * Run a full gradient check of `layer` on `input`.
 *
 * @param tolerance max |analytic - numeric| relative to scale.
 */
inline void
checkGradients(Layer &layer, const Matrix &input, uint64_t seed,
               double tolerance = 2e-5)
{
    Matrix out, grad_input;
    layer.forwardInto(input, /*training=*/true, out);
    Matrix weights(out.rows(), out.cols());
    Rng rng(seed);
    weights.fillNormal(rng, 1.0);

    layer.zeroGrad();
    layer.forwardInto(input, /*training=*/true, out);
    layer.backwardInto(weights, grad_input);

    const double eps = 1e-6;

    // Parameter gradients.
    std::vector<Matrix *> params = layer.parameters();
    std::vector<Matrix *> grads = layer.gradients();
    ASSERT_EQ(params.size(), grads.size());
    for (size_t p = 0; p < params.size(); ++p) {
        Matrix &param = *params[p];
        const Matrix &grad = *grads[p];
        ASSERT_EQ(param.rows(), grad.rows());
        ASSERT_EQ(param.cols(), grad.cols());
        for (size_t i = 0; i < param.size(); ++i) {
            double saved = param.data()[i];
            param.data()[i] = saved + eps;
            double up = lossOf(layer, input, weights);
            param.data()[i] = saved - eps;
            double down = lossOf(layer, input, weights);
            param.data()[i] = saved;
            double numeric = (up - down) / (2.0 * eps);
            double scale =
                std::max({1.0, std::fabs(numeric),
                          std::fabs(grad.data()[i])});
            EXPECT_NEAR(grad.data()[i] / scale, numeric / scale, tolerance)
                << "param tensor " << p << " element " << i;
        }
    }

    // Input gradients.
    Matrix x = input;
    for (size_t i = 0; i < x.size(); ++i) {
        double saved = x.data()[i];
        x.data()[i] = saved + eps;
        double up = lossOf(layer, x, weights);
        x.data()[i] = saved - eps;
        double down = lossOf(layer, x, weights);
        x.data()[i] = saved;
        double numeric = (up - down) / (2.0 * eps);
        double scale = std::max(
            {1.0, std::fabs(numeric), std::fabs(grad_input.data()[i])});
        EXPECT_NEAR(grad_input.data()[i] / scale, numeric / scale,
                    tolerance)
            << "input element " << i;
    }
}

} // namespace testutil
} // namespace nn
} // namespace geo

#endif // GEO_TESTS_NN_GRADCHECK_HH
