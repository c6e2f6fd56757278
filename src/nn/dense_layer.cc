#include "nn/dense_layer.hh"

#include "util/logging.hh"
#include "util/random.hh"

namespace geo {
namespace nn {

DenseLayer::DenseLayer(size_t input_size, size_t output_size, Activation act,
                       Rng &rng)
    : weights_(input_size, output_size), bias_(1, output_size),
      gradWeights_(input_size, output_size), gradBias_(1, output_size),
      act_(act)
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
    if (input.cols() != weights_.rows())
        panic("DenseLayer::forward: input width %zu != %zu", input.cols(),
              weights_.rows());
    // Bias and activation are applied in place instead of
    // materializing intermediates; `out` is caller-owned scratch.
    input.matmulInto(weights_, out);
    out.addRowBroadcastInPlace(bias_);
    applyActivationInPlace(act_, out);
    if (training) {
        input_ = &input;
        output_ = &out;
    }
}

void
DenseLayer::accumulateGradients(const Matrix &grad_output)
{
    if (!input_)
        panic("DenseLayer::backward without a training forward pass");
    activationDerivativeFromOutput(act_, *output_, gradPreScratch_);
    gradPreScratch_.hadamardInPlace(grad_output);
    input_->transposedMatmulInto(gradPreScratch_, gradScratch_);
    gradWeights_ += gradScratch_;
    // Sum fully into scratch, then add once — accumulating directly
    // into gradBias_ would change the rounding sequence.
    gradPreScratch_.columnSumsInto(biasScratch_);
    gradBias_ += biasScratch_;
}

void
DenseLayer::backwardInto(const Matrix &grad_output, Matrix &grad_input)
{
    accumulateGradients(grad_output);
    gradPreScratch_.matmulTransposedInto(weights_, grad_input);
}

void
DenseLayer::backwardParams(const Matrix &grad_output, Matrix &)
{
    accumulateGradients(grad_output);
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
