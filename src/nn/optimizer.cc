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
    norms_.resize(grads.size());
    if (clips())
        for (size_t i = 0; i < grads.size(); ++i)
            norms_[i] = grads[i]->norm();
    const double scale = clipScale(norms_.data(), norms_.size());
    for (size_t i = 0; i < params.size(); ++i)
        updateRange(*params[i], *grads[i], scale, 0, params[i]->size());
}

double
SgdOptimizer::clipScale(const double *norms, size_t count) const
{
    if (!clips())
        return 1.0;
    double total = 0.0;
    for (size_t i = 0; i < count; ++i)
        total += norms[i] * norms[i];
    double norm = std::sqrt(total);
    return norm > clipNorm_ ? clipNorm_ / norm : 1.0;
}

void
SgdOptimizer::updateRange(Matrix &param, const Matrix &grad, double scale,
                          size_t begin, size_t end) const
{
    if (param.rows() != grad.rows() || param.cols() != grad.cols() ||
        end > param.size())
        panic("SgdOptimizer: %zux%zu parameter, %zux%zu gradient, "
              "elements [%zu, %zu)", param.rows(), param.cols(),
              grad.rows(), grad.cols(), begin, end);
    double *p = param.data().data();
    const double *g = grad.data().data();
    for (size_t j = begin; j < end; ++j)
        p[j] -= lr_ * scale * g[j];
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
