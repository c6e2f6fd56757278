/**
 * @file
 * Abstract layer interface for the Sequential model.
 *
 * A layer owns its parameters and their gradient buffers, and writes
 * its outputs into buffers its caller owns (Sequential's scratch
 * arena). A training forward keeps whatever state the backward pass
 * needs, so the usual call pattern is forwardInto -> backwardInto ->
 * (optimizer step) -> zeroGrad.
 */

#ifndef GEO_NN_LAYER_HH
#define GEO_NN_LAYER_HH

#include <string>
#include <vector>

#include "nn/matrix.hh"

namespace geo {

class Rng;

namespace nn {

/**
 * Base class for all trainable layers.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Run the layer on a (batch x inputSize) matrix into `out`, which
     * the layer reshapes to batch x outputSize.
     *
     * A training call (training == true) keeps what backwardInto()
     * needs, and may keep pointers to `input` and `out` instead of
     * copies: both must stay alive and unmodified until the matching
     * backwardInto().
     */
    virtual void forwardInto(const Matrix &input, bool training,
                             Matrix &out) = 0;

    /**
     * Backpropagate: accumulate parameter gradients and write the
     * gradient with respect to this layer's input into `grad_input`.
     *
     * Must follow a forwardInto(input, true, out), with a gradient of
     * the same shape as that forward's output.
     */
    virtual void backwardInto(const Matrix &grad_output,
                              Matrix &grad_input) = 0;

    /**
     * backwardInto() for a caller that discards the input gradient, as
     * Sequential does for its first layer: only the parameter
     * gradients have to be accumulated. Layers that can skip forming
     * the input gradient override this; the default forms it into
     * `scratch`.
     */
    virtual void
    backwardParams(const Matrix &grad_output, Matrix &scratch)
    {
        backwardInto(grad_output, scratch);
    }

    /** Flattened list of parameter tensors (paired with gradients()). */
    virtual std::vector<Matrix *> parameters() = 0;

    /** Gradient buffers, index-aligned with parameters(). */
    virtual std::vector<Matrix *> gradients() = 0;

    /** Expected input width. */
    virtual size_t inputSize() const = 0;

    /** Output width. */
    virtual size_t outputSize() const = 0;

    /** Human-readable description, e.g. "96 (Dense) ReLU". */
    virtual std::string describe() const = 0;

    /** Type tag used by the serializer ("dense", "lstm", ...). */
    virtual std::string typeName() const = 0;

    /** Zero all gradient buffers. */
    void
    zeroGrad()
    {
        for (Matrix *g : gradients())
            g->zero();
    }

    /** Total number of scalar parameters. */
    size_t
    parameterCount()
    {
        size_t total = 0;
        for (Matrix *p : parameters())
            total += p->size();
        return total;
    }
};

} // namespace nn
} // namespace geo

#endif // GEO_NN_LAYER_HH
