/**
 * @file
 * Unit tests for the SGD optimizer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "nn/optimizer.hh"
#include "util/state_io.hh"

namespace geo {
namespace nn {
namespace {

TEST(Sgd, BasicStep)
{
    Matrix param = Matrix::fromRows({{1.0, 2.0}});
    Matrix grad = Matrix::fromRows({{0.5, -1.0}});
    SgdOptimizer opt(0.1);
    opt.step({&param}, {&grad});
    EXPECT_DOUBLE_EQ(param.at(0, 0), 0.95);
    EXPECT_DOUBLE_EQ(param.at(0, 1), 2.1);
}

TEST(Sgd, ClippingScalesLargeGradients)
{
    Matrix param(1, 1);
    Matrix grad = Matrix::fromRows({{100.0}});
    SgdOptimizer opt(1.0, /*clip_norm=*/1.0);
    opt.step({&param}, {&grad});
    // Gradient scaled down to norm 1 -> step of exactly -1.
    EXPECT_NEAR(param.at(0, 0), -1.0, 1e-12);
}

TEST(Sgd, ClippingLeavesSmallGradientsAlone)
{
    Matrix param(1, 1);
    Matrix grad = Matrix::fromRows({{0.5}});
    SgdOptimizer opt(1.0, /*clip_norm=*/10.0);
    opt.step({&param}, {&grad});
    EXPECT_DOUBLE_EQ(param.at(0, 0), -0.5);
}

TEST(Sgd, GlobalNormAcrossTensors)
{
    Matrix p1(1, 1), p2(1, 1);
    Matrix g1 = Matrix::fromRows({{3.0}});
    Matrix g2 = Matrix::fromRows({{4.0}});
    SgdOptimizer opt(1.0, /*clip_norm=*/5.0); // norm is exactly 5
    opt.step({&p1, &p2}, {&g1, &g2});
    EXPECT_NEAR(p1.at(0, 0), -3.0, 1e-12);
    EXPECT_NEAR(p2.at(0, 0), -4.0, 1e-12);
}

TEST(SgdDeathTest, MismatchedLists)
{
    Matrix p(1, 1), g(1, 1);
    SgdOptimizer opt(0.1);
    EXPECT_DEATH(opt.step({&p}, {}), "params");
}

TEST(Sgd, ConvergesOnQuadratic)
{
    // Minimize (x - 3)^2 by following its gradient.
    Matrix x(1, 1);
    SgdOptimizer opt(0.1);
    for (int i = 0; i < 200; ++i) {
        Matrix grad = Matrix::fromRows({{2.0 * (x.at(0, 0) - 3.0)}});
        opt.step({&x}, {&grad});
    }
    EXPECT_NEAR(x.at(0, 0), 3.0, 1e-6);
}

TEST(Sgd, StateRoundTripIsNoOp)
{
    // SGD keeps no state beyond its learning rate: save/load must
    // round-trip cleanly so engine checkpoints stay format-stable.
    SgdOptimizer opt(0.1);
    std::ostringstream os;
    util::StateWriter w(os);
    opt.saveState(w);
    std::istringstream is(os.str());
    util::StateReader r(is);
    opt.loadState(r);
    EXPECT_TRUE(r.ok());
}

} // namespace
} // namespace nn
} // namespace geo
