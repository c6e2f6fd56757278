#include "nn/loss.hh"

#include "util/logging.hh"

namespace geo {
namespace nn {

namespace {

void
checkShapes(const Matrix &a, const Matrix &b, const char *who)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        panic("%s: shape mismatch %zux%zu vs %zux%zu", who, a.rows(),
              a.cols(), b.rows(), b.cols());
    if (a.size() == 0)
        panic("%s: empty batch", who);
}

} // namespace

double
MseLoss::value(const Matrix &predictions, const Matrix &targets)
{
    checkShapes(predictions, targets, "MseLoss::value");
    double total = 0.0;
    for (size_t i = 0; i < predictions.size(); ++i) {
        double d = predictions.data()[i] - targets.data()[i];
        total += d * d;
    }
    return total / static_cast<double>(predictions.size());
}

Matrix
MseLoss::gradient(const Matrix &predictions, const Matrix &targets)
{
    checkShapes(predictions, targets, "MseLoss::gradient");
    Matrix grad = predictions - targets;
    grad *= 2.0 / static_cast<double>(predictions.size());
    return grad;
}

void
MseLoss::gradientInto(const Matrix &predictions, const Matrix &targets,
                      Matrix &out, size_t begin, size_t end)
{
    checkShapes(predictions, targets, "MseLoss::gradientInto");
    checkShapes(predictions, out, "MseLoss::gradientInto");
    if (begin > end || end > predictions.rows())
        panic("MseLoss::gradientInto: rows [%zu, %zu) of %zu", begin, end,
              predictions.rows());
    const double scale = 2.0 / static_cast<double>(predictions.size());
    // Per element: subtract, then scale — the same two operations in
    // the same order as the allocating variant, so bit-identical.
    const size_t width = predictions.cols();
    for (size_t i = begin * width; i < end * width; ++i)
        out.data()[i] =
            (predictions.data()[i] - targets.data()[i]) * scale;
}

} // namespace nn
} // namespace geo
