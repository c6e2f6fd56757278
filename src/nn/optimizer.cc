#include "nn/optimizer.hh"

#include <cmath>

#include "util/logging.hh"

namespace geo {
namespace nn {

SgdOptimizer::SgdOptimizer(double lr, double clip_norm)
    : lr_(lr), clipNorm_(clip_norm)
{
}

void
SgdOptimizer::step(const std::vector<Matrix *> &params,
                   const std::vector<Matrix *> &grads)
{
    if (params.size() != grads.size())
        panic("SgdOptimizer::step: %zu params vs %zu grads", params.size(),
              grads.size());
    double scale = 1.0;
    if (clipNorm_ > 0.0) {
        double total = 0.0;
        for (const Matrix *g : grads) {
            double n = g->norm();
            total += n * n;
        }
        double norm = std::sqrt(total);
        if (norm > clipNorm_)
            scale = clipNorm_ / norm;
    }
    for (size_t i = 0; i < params.size(); ++i) {
        Matrix &p = *params[i];
        const Matrix &g = *grads[i];
        if (p.rows() != g.rows() || p.cols() != g.cols())
            panic("SgdOptimizer::step: shape mismatch at tensor %zu", i);
        for (size_t j = 0; j < p.size(); ++j)
            p.data()[j] -= lr_ * scale * g.data()[j];
    }
}

void
SgdOptimizer::saveState(util::StateWriter &w) const
{
    w.f64("opt.lr", lr_);
}

void
SgdOptimizer::loadState(util::StateReader &r)
{
    lr_ = r.f64("opt.lr");
}

} // namespace nn
} // namespace geo
