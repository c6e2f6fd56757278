/**
 * @file
 * Long Short-Term Memory layer with full backpropagation through time.
 *
 * Gates use sigmoid; the cell candidate and output transforms use the
 * configurable activation (ReLU in the paper's Table I entries). The
 * windowed-input convention matches SimpleRnnLayer.
 */

#ifndef GEO_NN_LSTM_LAYER_HH
#define GEO_NN_LSTM_LAYER_HH

#include "nn/activation.hh"
#include "nn/layer.hh"

namespace geo {
namespace nn {

/**
 * LSTM: i/f/o gates (sigmoid) + candidate g (act); output h_T.
 *
 * Per step, with z_t = [h_{t-1}, x_t]:
 *   i = sigm(z Wi + bi)     f = sigm(z Wf + bf)
 *   o = sigm(z Wo + bo)     g = act(z Wg + bg)
 *   c_t = f . c_{t-1} + i . g
 *   h_t = o . act(c_t)
 */
class LstmLayer : public Layer
{
  public:
    LstmLayer(size_t features_per_step, size_t timesteps, size_t hidden_size,
              Activation act, Rng &rng);

    void forwardInto(const Matrix &input, bool training,
                     Matrix &out) override;
    void backwardInto(const Matrix &grad_output,
                      Matrix &grad_input) override;

    std::vector<Matrix *> parameters() override;
    std::vector<Matrix *> gradients() override;

    size_t inputSize() const override { return features_ * timesteps_; }
    size_t outputSize() const override { return hidden_; }
    std::string describe() const override;
    std::string typeName() const override { return "lstm"; }

    size_t timesteps() const { return timesteps_; }
    size_t featuresPerStep() const { return features_; }

  private:
    /** Per-timestep cache for BPTT. */
    struct StepCache
    {
        Matrix z;      ///< concatenated [h_prev, x_t], batch x (H + F)
        Matrix i, f, o, g; ///< post-nonlinearity gate values
        Matrix gPre;   ///< pre-activation candidate
        Matrix c;      ///< cell state after this step
        Matrix cAct;   ///< act(c)
        Matrix cActPre; ///< c (pre-activation of the cell output transform)
    };

    size_t features_;
    size_t timesteps_;
    size_t hidden_;
    Activation act_;

    // Combined-input weights: (hidden + features) x hidden per gate.
    Matrix wi_, wf_, wo_, wg_;
    Matrix bi_, bf_, bo_, bg_;
    Matrix gradWi_, gradWf_, gradWo_, gradWg_;
    Matrix gradBi_, gradBf_, gradBo_, gradBg_;

    std::vector<StepCache> cache_;
    Matrix cachedCPrev0_; ///< zero matrix kept for the t = 0 backward step

    // Reused scratch buffers (per-step allocation churn killers).
    Matrix scratchW_; ///< (hidden + features) x hidden weight gradient
    Matrix scratchZ_; ///< batch x (hidden + features) input gradient

    /** Build [h_prev | x_t]. */
    Matrix concat(const Matrix &h_prev, const Matrix &x_t) const;
};

} // namespace nn
} // namespace geo

#endif // GEO_NN_LSTM_LAYER_HH
