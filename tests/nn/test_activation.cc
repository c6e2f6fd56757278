/**
 * @file
 * Unit and parameterized tests for activation functions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "nn/activation.hh"

namespace geo {
namespace nn {
namespace {

TEST(Activation, ReluValues)
{
    EXPECT_DOUBLE_EQ(activate(Activation::ReLU, 3.0), 3.0);
    EXPECT_DOUBLE_EQ(activate(Activation::ReLU, -3.0), 0.0);
    EXPECT_DOUBLE_EQ(activate(Activation::ReLU, 0.0), 0.0);
}

TEST(Activation, LinearIdentity)
{
    for (double x : {-5.0, 0.0, 2.5})
        EXPECT_DOUBLE_EQ(activate(Activation::Linear, x), x);
}

TEST(Activation, SigmoidRangeAndCenter)
{
    EXPECT_DOUBLE_EQ(activate(Activation::Sigmoid, 0.0), 0.5);
    EXPECT_GT(activate(Activation::Sigmoid, 10.0), 0.999);
    EXPECT_LT(activate(Activation::Sigmoid, -10.0), 0.001);
}

TEST(Activation, TanhOddFunction)
{
    for (double x : {0.5, 1.0, 2.0})
        EXPECT_DOUBLE_EQ(activate(Activation::Tanh, x),
                         -activate(Activation::Tanh, -x));
}

TEST(Activation, MatrixApplyMatchesScalar)
{
    Matrix m = Matrix::fromRows({{-2.0, -0.5, 0.0, 0.5, 2.0}});
    for (Activation act : {Activation::Linear, Activation::ReLU,
                           Activation::Sigmoid, Activation::Tanh}) {
        Matrix out = m;
        applyActivationInPlace(act, out);
        for (size_t c = 0; c < m.cols(); ++c)
            EXPECT_DOUBLE_EQ(out.at(0, c), activate(act, m.at(0, c)));
    }
}

/** Parameterized derivative check against a finite difference. */
class ActivationDerivativeTest : public testing::TestWithParam<Activation>
{
};

TEST_P(ActivationDerivativeTest, MatchesFiniteDifference)
{
    Activation act = GetParam();
    const double eps = 1e-6;
    for (double x : {-2.0, -0.7, 0.3, 1.1, 3.0}) {
        double numeric = (activate(act, x + eps) - activate(act, x - eps)) /
                         (2.0 * eps);
        EXPECT_NEAR(activateDerivative(act, x), numeric, 1e-5)
            << activationName(act) << " at x = " << x;
    }
}

TEST_P(ActivationDerivativeTest, MatrixDerivativeMatchesScalar)
{
    Activation act = GetParam();
    Matrix m = Matrix::fromRows({{-1.5, 0.25, 2.0}});
    Matrix d = activationDerivative(act, m);
    for (size_t c = 0; c < m.cols(); ++c)
        EXPECT_DOUBLE_EQ(d.at(0, c), activateDerivative(act, m.at(0, c)));
}

TEST_P(ActivationDerivativeTest, FromOutputIsBitwiseFromPreActivation)
{
    // The dense layer's backward pass derives from the layer output,
    // not a copy of the pre-activations; every bit has to agree,
    // including at the edges (signed zeros, infinities, NaN).
    Activation act = GetParam();
    const double inf = std::numeric_limits<double>::infinity();
    Matrix pre = Matrix::fromRows(
        {{-2.0, -0.5, -0.0, 0.0, 1e-310, -1e-310, 0.5, 2.0, 19.0, -40.0,
          800.0, -800.0, inf, -inf,
          std::numeric_limits<double>::quiet_NaN()}});
    Matrix post = pre;
    applyActivationInPlace(act, post);
    // The pre-activation gradient of a unit output gradient is the
    // derivative itself (x * 1.0 == x).
    Matrix ones(1, pre.cols(), 1.0), from_output(1, pre.cols());
    preActivationGradient(act, post.data().data(), ones.data().data(),
                          from_output.data().data(), pre.cols());
    Matrix from_pre = activationDerivative(act, pre);
    ASSERT_EQ(from_output.cols(), from_pre.cols());
    for (size_t c = 0; c < pre.cols(); ++c) {
        const double x = from_output.at(0, c), y = from_pre.at(0, c);
        if (std::isnan(x) && std::isnan(y))
            continue;
        EXPECT_EQ(0, std::memcmp(&x, &y, sizeof(x)))
            << activationName(act) << " at pre = " << pre.at(0, c)
            << ": " << x << " vs " << y;
    }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationDerivativeTest,
                         testing::Values(Activation::Linear,
                                         Activation::ReLU,
                                         Activation::Sigmoid,
                                         Activation::Tanh),
                         [](const auto &info) {
                             return activationName(info.param);
                         });

} // namespace
} // namespace nn
} // namespace geo
