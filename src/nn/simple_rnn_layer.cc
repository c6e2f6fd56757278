#include "nn/simple_rnn_layer.hh"

#include <cmath>

#include "util/logging.hh"
#include "util/random.hh"

namespace geo {
namespace nn {

SimpleRnnLayer::SimpleRnnLayer(size_t features_per_step, size_t timesteps,
                               size_t hidden_size, Activation act, Rng &rng)
    : features_(features_per_step), timesteps_(timesteps),
      hidden_(hidden_size), act_(act), wx_(features_per_step, hidden_size),
      wh_(hidden_size, hidden_size), bias_(1, hidden_size),
      gradWx_(features_per_step, hidden_size),
      gradWh_(hidden_size, hidden_size), gradBias_(1, hidden_size)
{
    if (features_ == 0 || timesteps_ == 0 || hidden_ == 0)
        panic("SimpleRnnLayer: zero dimension (%zu, %zu, %zu)", features_,
              timesteps_, hidden_);
    wx_.fillXavierUniform(rng, features_, hidden_);
    // Scaled-down recurrent weights keep ReLU recurrences from exploding.
    wh_.fillNormal(rng, 0.5 / std::sqrt(static_cast<double>(hidden_)));
}

void
SimpleRnnLayer::forwardInto(const Matrix &input, bool training, Matrix &out)
{
    if (input.cols() != inputSize())
        panic("SimpleRnnLayer::forward: input width %zu != %zu",
              input.cols(), inputSize());
    size_t batch = input.rows();
    Matrix hidden(batch, hidden_);
    if (training) {
        cachedInputs_.clear();
        cachedPreActs_.clear();
        cachedHidden_.clear();
        cachedInputs_.reserve(timesteps_);
        cachedPreActs_.reserve(timesteps_);
        cachedHidden_.reserve(timesteps_);
    }
    for (size_t t = 0; t < timesteps_; ++t) {
        Matrix xt = input.colRange(t * features_, (t + 1) * features_);
        Matrix pre = xt.matmul(wx_);
        hidden.matmulInto(wh_, scratch_);
        pre += scratch_;
        pre.addRowBroadcastInPlace(bias_);
        hidden = pre;
        applyActivationInPlace(act_, hidden);
        if (training) {
            cachedInputs_.push_back(std::move(xt));
            cachedPreActs_.push_back(std::move(pre));
            cachedHidden_.push_back(hidden);
        }
    }
    out = std::move(hidden);
}

void
SimpleRnnLayer::backwardInto(const Matrix &grad_output, Matrix &grad_input)
{
    if (cachedPreActs_.size() != timesteps_)
        panic("SimpleRnnLayer::backward without a training forward pass");
    size_t batch = grad_output.rows();
    Matrix dh = grad_output;
    grad_input.reshape(batch, inputSize());
    for (size_t t = timesteps_; t-- > 0;) {
        Matrix dpre = activationDerivative(act_, cachedPreActs_[t]);
        dpre.hadamardInPlace(dh);
        cachedInputs_[t].transposedMatmulInto(dpre, scratch_);
        gradWx_ += scratch_;
        Matrix h_prev = (t == 0) ? Matrix(batch, hidden_)
                                 : cachedHidden_[t - 1];
        h_prev.transposedMatmulInto(dpre, scratch_);
        gradWh_ += scratch_;
        gradBias_ += dpre.columnSums();
        grad_input.setBlock(0, t * features_,
                            dpre.matmulTransposed(wx_));
        dh = dpre.matmulTransposed(wh_);
    }
}

std::vector<Matrix *>
SimpleRnnLayer::parameters()
{
    return {&wx_, &wh_, &bias_};
}

std::vector<Matrix *>
SimpleRnnLayer::gradients()
{
    return {&gradWx_, &gradWh_, &gradBias_};
}

std::string
SimpleRnnLayer::describe() const
{
    return strprintf("%zu (SimpleRNN) %s", hidden_,
                     activationName(act_).c_str());
}

} // namespace nn
} // namespace geo
