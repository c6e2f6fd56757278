#include "nn/dense_layer.hh"

#include "util/logging.hh"
#include "util/random.hh"

namespace geo {
namespace nn {

DenseLayer::DenseLayer(size_t input_size, size_t output_size, Activation act,
                       Rng &rng)
    : weights_(input_size, output_size), bias_(1, output_size),
      gradWeights_(input_size, output_size), gradBias_(1, output_size),
      act_(act), gradScratch_(input_size, output_size),
      biasScratch_(1, output_size)
{
    if (input_size == 0 || output_size == 0)
        panic("DenseLayer: zero dimension (%zu x %zu)", input_size,
              output_size);
    if (act == Activation::ReLU)
        weights_.fillHeNormal(rng, input_size);
    else
        weights_.fillXavierUniform(rng, input_size, output_size);
}

void
DenseLayer::forwardInto(const Matrix &input, bool training, Matrix &out)
{
    out.reshape(input.rows(), outputSize());
    forwardRows(input, out, 0, input.rows());
    if (training) {
        input_ = &input;
        output_ = &out;
    }
}

void
DenseLayer::backwardInto(const Matrix &grad_output, Matrix &grad_input)
{
    if (!input_)
        panic("DenseLayer::backward without a training forward pass");
    const size_t rows = grad_output.rows();
    gradPreScratch_.reshape(rows, outputSize());
    grad_input.reshape(rows, inputSize());
    backwardRows(*output_, grad_output, gradPreScratch_, &grad_input, 0,
                 rows);
    accumulateGradients(*input_, gradPreScratch_, 0, 1);
}

void
DenseLayer::forwardRows(const Matrix &input, Matrix &out, size_t begin,
                        size_t end)
{
    if (input.cols() != weights_.rows())
        panic("DenseLayer::forward: input width %zu != %zu", input.cols(),
              weights_.rows());
    input.matmulInto(weights_, out, begin, end);
    // Bias and activation in place over the rows, no intermediates.
    const size_t n = out.cols();
    double *rows = out.data().data() + begin * n;
    const double *bias = bias_.data().data();
    for (size_t r = 0; r < end - begin; ++r)
        for (size_t c = 0; c < n; ++c)
            rows[r * n + c] += bias[c];
    applyActivationInPlace(act_, rows, (end - begin) * n);
}

void
DenseLayer::backwardRows(const Matrix &output, const Matrix &grad_output,
                         Matrix &grad_pre, Matrix *grad_input, size_t begin,
                         size_t end)
{
    const size_t n = outputSize();
    if (output.cols() != n || grad_output.cols() != n ||
        grad_pre.cols() != n)
        panic("DenseLayer::backward: gradient width %zu != %zu",
              grad_output.cols(), n);
    const size_t first = begin * n;
    preActivationGradient(act_, output.data().data() + first,
                          grad_output.data().data() + first,
                          grad_pre.data().data() + first, (end - begin) * n);
    if (grad_input)
        grad_pre.matmulTransposedInto(weights_, *grad_input, begin, end);
}

void
DenseLayer::accumulateGradients(const Matrix &input, const Matrix &grad_pre,
                                size_t share, size_t shares)
{
    const size_t in = inputSize(), n = outputSize();
    const size_t k0 = in * share / shares, k1 = in * (share + 1) / shares;
    input.transposedMatmulInto(grad_pre, gradScratch_, k0, k1);
    double *gw = gradWeights_.data().data();
    const double *sums = gradScratch_.data().data();
    for (size_t i = k0 * n; i < k1 * n; ++i)
        gw[i] += sums[i];
    const size_t c0 = n * share / shares, c1 = n * (share + 1) / shares;
    grad_pre.columnSumsInto(biasScratch_, c0, c1);
    double *gb = gradBias_.data().data();
    const double *col = biasScratch_.data().data();
    for (size_t c = c0; c < c1; ++c)
        gb[c] += col[c];
}

std::vector<Matrix *>
DenseLayer::parameters()
{
    return {&weights_, &bias_};
}

std::vector<Matrix *>
DenseLayer::gradients()
{
    return {&gradWeights_, &gradBias_};
}

std::string
DenseLayer::describe() const
{
    return strprintf("%zu (Dense) %s", outputSize(),
                     activationName(act_).c_str());
}

} // namespace nn
} // namespace geo
