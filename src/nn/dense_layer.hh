/**
 * @file
 * Fully connected (dense) layer: y = act(x W + b).
 *
 * The paper's winning architecture (model 1) is a stack of these with
 * ReLU activations and a final linear unit.
 */

#ifndef GEO_NN_DENSE_LAYER_HH
#define GEO_NN_DENSE_LAYER_HH

#include "nn/activation.hh"
#include "nn/layer.hh"

namespace geo {
namespace nn {

/**
 * Dense layer with He-initialized weights and zero biases.
 */
class DenseLayer : public Layer
{
  public:
    /**
     * @param input_size width of input rows.
     * @param output_size number of units.
     * @param act activation function.
     * @param rng initializer source (deterministic training).
     */
    DenseLayer(size_t input_size, size_t output_size, Activation act,
               Rng &rng);

    // All intermediates live in member scratch buffers sized on first
    // use. A training forwardInto keeps pointers to its input and
    // output (see Layer).
    void forwardInto(const Matrix &input, bool training,
                     Matrix &out) override;
    void backwardInto(const Matrix &grad_output,
                      Matrix &grad_input) override;
    void backwardParams(const Matrix &grad_output, Matrix &) override;

    std::vector<Matrix *> parameters() override;
    std::vector<Matrix *> gradients() override;

    size_t inputSize() const override { return weights_.rows(); }
    size_t outputSize() const override { return weights_.cols(); }
    std::string describe() const override;
    std::string typeName() const override { return "dense"; }

    Activation activation() const { return act_; }

    /** Direct accessors used by the serializer and tests. */
    Matrix &weights() { return weights_; }
    Matrix &bias() { return bias_; }

  private:
    Matrix weights_;    ///< input_size x output_size
    Matrix bias_;       ///< 1 x output_size
    Matrix gradWeights_;
    Matrix gradBias_;
    Activation act_;

    /** Accumulate the weight and bias gradients into gradWeights_ /
     *  gradBias_, leaving the pre-activation gradient in
     *  gradPreScratch_. */
    void accumulateGradients(const Matrix &grad_output);

    // The last training forward's input and (post-activation) output.
    const Matrix *input_ = nullptr;
    const Matrix *output_ = nullptr;

    // Reused backward-pass scratch (kills per-batch allocations).
    Matrix gradScratch_;    ///< weight-gradient accumulator input
    Matrix gradPreScratch_; ///< activation derivative / pre-act grad
    Matrix biasScratch_;    ///< column sums for the bias gradient
};

} // namespace nn
} // namespace geo

#endif // GEO_NN_DENSE_LAYER_HH
