/**
 * @file
 * Gated Recurrent Unit layer with full backpropagation through time.
 *
 * Gates use sigmoid; the candidate transform uses the configurable
 * activation (ReLU in the paper's Table I). Windowed-input convention
 * matches SimpleRnnLayer.
 */

#ifndef GEO_NN_GRU_LAYER_HH
#define GEO_NN_GRU_LAYER_HH

#include "nn/activation.hh"
#include "nn/layer.hh"

namespace geo {
namespace nn {

/**
 * GRU per step:
 *   u = sigm(x Wu + h_{t-1} Ru + bu)          (update gate)
 *   r = sigm(x Wr + h_{t-1} Rr + br)          (reset gate)
 *   n = act(x Wn + (r . h_{t-1}) Rn + bn)     (candidate)
 *   h_t = (1 - u) . h_{t-1} + u . n
 * Output is h_T.
 */
class GruLayer : public Layer
{
  public:
    GruLayer(size_t features_per_step, size_t timesteps, size_t hidden_size,
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
    std::string typeName() const override { return "gru"; }

    size_t timesteps() const { return timesteps_; }
    size_t featuresPerStep() const { return features_; }

  private:
    struct StepCache
    {
        Matrix x;     ///< input at this step
        Matrix hPrev; ///< hidden state entering this step
        Matrix u, r;  ///< gate values (post-sigmoid)
        Matrix n;     ///< candidate (post-activation)
        Matrix nPre;  ///< candidate pre-activation
        Matrix rh;    ///< r . h_prev
    };

    size_t features_;
    size_t timesteps_;
    size_t hidden_;
    Activation act_;

    Matrix wu_, wr_, wn_; ///< input weights, features x hidden
    Matrix ru_, rr_, rn_; ///< recurrent weights, hidden x hidden
    Matrix bu_, br_, bn_;
    Matrix gradWu_, gradWr_, gradWn_;
    Matrix gradRu_, gradRr_, gradRn_;
    Matrix gradBu_, gradBr_, gradBn_;

    std::vector<StepCache> cache_;

    // Reused scratch buffers (per-step allocation churn killers).
    Matrix gateScratch_; ///< batch x hidden recurrent product
    Matrix scratchW_;    ///< features x hidden weight gradient
    Matrix scratchR_;    ///< hidden x hidden recurrent gradient
    Matrix scratchH_;    ///< batch x hidden hidden-grad product
    Matrix scratchX_;    ///< batch x features input-grad product
};

} // namespace nn
} // namespace geo

#endif // GEO_NN_GRU_LAYER_HH
