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

    // The whole-batch pair runs the row-range body over every row. A
    // training forwardInto keeps pointers to its input and output for
    // backwardInto (see Layer).
    void forwardInto(const Matrix &input, bool training,
                     Matrix &out) override;
    void backwardInto(const Matrix &grad_output,
                      Matrix &grad_input) override;

    bool rowLocal() const override { return true; }
    void forwardRows(const Matrix &input, Matrix &out, size_t begin,
                     size_t end) override;
    void backwardRows(const Matrix &output, const Matrix &grad_output,
                      Matrix &grad_pre, Matrix *grad_input, size_t begin,
                      size_t end) override;
    /** Share `share` of `shares` takes that share of the weight
     *  gradient's rows and of the bias gradient's columns. */
    void accumulateGradients(const Matrix &input, const Matrix &grad_pre,
                             size_t share, size_t shares) override;

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

    // The last training forwardInto's input and (post-activation)
    // output, for backwardInto.
    const Matrix *input_ = nullptr;
    const Matrix *output_ = nullptr;

    // Scratch sized at construction: a share's rows of X^T * dY and
    // columns of the bias gradient land here before they are added,
    // so each element is 0.0 plus the full sum, as it always was.
    Matrix gradScratch_;    ///< input_size x output_size
    Matrix biasScratch_;    ///< 1 x output_size
    Matrix gradPreScratch_; ///< backwardInto's pre-activation gradient
};

} // namespace nn
} // namespace geo

#endif // GEO_NN_DENSE_LAYER_HH
