/**
 * @file
 * Unit tests for the loss functions.
 */

#include <gtest/gtest.h>

#include "nn/loss.hh"

namespace geo {
namespace nn {
namespace {

TEST(MseLoss, ZeroOnPerfectPrediction)
{
    Matrix p = Matrix::fromRows({{1.0, 2.0}});
    EXPECT_DOUBLE_EQ(MseLoss::value(p, p), 0.0);
}

TEST(MseLoss, KnownValue)
{
    Matrix pred = Matrix::fromRows({{1.0}, {3.0}});
    Matrix target = Matrix::fromRows({{0.0}, {0.0}});
    EXPECT_DOUBLE_EQ(MseLoss::value(pred, target), 5.0);
}

TEST(MseLoss, GradientDirection)
{
    Matrix pred = Matrix::fromRows({{2.0}});
    Matrix target = Matrix::fromRows({{1.0}});
    Matrix grad = MseLoss::gradient(pred, target);
    EXPECT_DOUBLE_EQ(grad.at(0, 0), 2.0); // 2 * (2 - 1) / 1
}

TEST(MseLoss, GradientMatchesFiniteDifference)
{
    Matrix pred = Matrix::fromRows({{0.5, -1.5}, {2.0, 0.0}});
    Matrix target = Matrix::fromRows({{1.0, 1.0}, {1.0, 1.0}});
    Matrix grad = MseLoss::gradient(pred, target);
    const double eps = 1e-6;
    for (size_t i = 0; i < pred.size(); ++i) {
        Matrix up = pred, down = pred;
        up.data()[i] += eps;
        down.data()[i] -= eps;
        double numeric = (MseLoss::value(up, target) -
                          MseLoss::value(down, target)) /
                         (2.0 * eps);
        EXPECT_NEAR(grad.data()[i], numeric, 1e-6);
    }
}

TEST(MseLossDeathTest, ShapeMismatch)
{
    Matrix a(2, 1), b(1, 1);
    EXPECT_DEATH(MseLoss::value(a, b), "shape mismatch");
}

TEST(MseLossDeathTest, EmptyBatch)
{
    Matrix a, b;
    EXPECT_DEATH(MseLoss::value(a, b), "empty");
}

} // namespace
} // namespace nn
} // namespace geo
