/**
 * @file
 * Simple (Elman) recurrent layer with full backpropagation through time.
 *
 * Recurrent layers consume a window of past accesses: the input row is
 * the concatenation of `timesteps` feature vectors of width
 * `featuresPerStep` (oldest first), and the output is the final hidden
 * state. This mirrors feeding a (timesteps, features) sequence to a
 * Keras recurrent layer and taking its last output, which is how the
 * paper's models 12-23 are constructed.
 */

#ifndef GEO_NN_SIMPLE_RNN_LAYER_HH
#define GEO_NN_SIMPLE_RNN_LAYER_HH

#include "nn/activation.hh"
#include "nn/layer.hh"

namespace geo {
namespace nn {

/**
 * Elman RNN: h_t = act(x_t Wx + h_{t-1} Wh + b), output h_T.
 */
class SimpleRnnLayer : public Layer
{
  public:
    /**
     * @param features_per_step width of each timestep's feature vector.
     * @param timesteps number of unrolled steps (input width is
     *        features_per_step * timesteps).
     * @param hidden_size number of recurrent units.
     * @param act activation (the paper uses ReLU).
     * @param rng weight initializer source.
     */
    SimpleRnnLayer(size_t features_per_step, size_t timesteps,
                   size_t hidden_size, Activation act, Rng &rng);

    void forwardInto(const Matrix &input, bool training,
                     Matrix &out) override;
    void backwardInto(const Matrix &grad_output,
                      Matrix &grad_input) override;

    std::vector<Matrix *> parameters() override;
    std::vector<Matrix *> gradients() override;

    size_t inputSize() const override { return features_ * timesteps_; }
    size_t outputSize() const override { return hidden_; }
    std::string describe() const override;
    std::string typeName() const override { return "simple_rnn"; }

    size_t timesteps() const { return timesteps_; }
    size_t featuresPerStep() const { return features_; }

  private:
    size_t features_;
    size_t timesteps_;
    size_t hidden_;
    Activation act_;

    Matrix wx_; ///< features x hidden
    Matrix wh_; ///< hidden x hidden
    Matrix bias_; ///< 1 x hidden
    Matrix gradWx_;
    Matrix gradWh_;
    Matrix gradBias_;

    // BPTT caches: per-timestep inputs, pre-activations and hidden states.
    std::vector<Matrix> cachedInputs_;
    std::vector<Matrix> cachedPreActs_;
    std::vector<Matrix> cachedHidden_; ///< hidden_[t] = state after step t

    // Reused scratch buffer (per-step allocation churn killer).
    Matrix scratch_;
};

} // namespace nn
} // namespace geo

#endif // GEO_NN_SIMPLE_RNN_LAYER_HH
