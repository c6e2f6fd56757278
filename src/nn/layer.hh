/**
 * @file
 * Abstract layer interface for the Sequential model.
 *
 * A layer owns its parameters and their gradient buffers, and writes
 * its outputs into buffers its caller owns (Sequential's scratch
 * arena). It runs two ways:
 *
 *  - Whole batch: forwardInto -> backwardInto -> (optimizer step) ->
 *    zeroGrad. A training forward keeps what the backward pass needs.
 *  - Row ranges, which is how Sequential::train runs every batch on a
 *    team of threads: each member takes its own rows through
 *    forwardRows and backwardRows, and after a barrier each member
 *    accumulates its share of the parameter gradients
 *    (accumulateGradients), every element still summed over all rows
 *    in ascending order by one member.
 *
 * Dense layers are row-local (rowLocal()): their whole-batch calls are
 * the row-range body over all rows. The recurrent layers keep
 * whole-batch bodies, which the defaults below wrap; their
 * backwardRows accepts only the whole batch, so a model that contains
 * one trains with a team of one.
 */

#ifndef GEO_NN_LAYER_HH
#define GEO_NN_LAYER_HH

#include <algorithm>
#include <string>
#include <vector>

#include "nn/matrix.hh"
#include "util/logging.hh"

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

    /** True when the row-range calls below take any rows (dense). */
    virtual bool rowLocal() const { return false; }

    /**
     * Rows [begin, end) of a training forward into `out`, which
     * already has the batch's shape; no other row is read or written.
     * The default runs a whole-batch body on a copy of the rows.
     */
    virtual void
    forwardRows(const Matrix &input, Matrix &out, size_t begin, size_t end)
    {
        if (begin == 0 && end == input.rows()) {
            forwardInto(input, /*training=*/true, out);
            return;
        }
        Matrix rows = input.rowRange(begin, end), rows_out;
        forwardInto(rows, /*training=*/true, rows_out);
        std::copy(rows_out.data().begin(), rows_out.data().end(),
                  out.data().begin() + static_cast<long>(begin * out.cols()));
    }

    /**
     * Rows [begin, end) of the backward chain after a forwardRows of
     * the same batch: from the gradient with respect to this layer's
     * output `output`, write the gradient with respect to its
     * pre-activation into `grad_pre` (which may be `grad_output`),
     * and, unless `grad_input` is null, the gradient with respect to
     * its input. The default runs the whole-batch backwardInto, which
     * also accumulates the parameter gradients.
     */
    virtual void
    backwardRows(const Matrix &output, const Matrix &grad_output,
                 Matrix &grad_pre, Matrix *grad_input, size_t begin,
                 size_t end)
    {
        (void)output;
        (void)grad_pre;
        if (begin != 0 || end != grad_output.rows())
            panic("%s: a whole-batch layer backpropagates the whole "
                  "batch only", describe().c_str());
        Matrix unused;
        backwardInto(grad_output, grad_input ? *grad_input : unused);
    }

    /**
     * Share `share` of `shares` of the parameter gradients: accumulate
     * them from the batch's `input` and the pre-activation gradient
     * `grad_pre` that backwardRows left for every row. Each element
     * belongs to one share and is summed over the rows in ascending
     * order. The default does nothing: its backwardRows accumulated
     * everything.
     */
    virtual void
    accumulateGradients(const Matrix &input, const Matrix &grad_pre,
                        size_t share, size_t shares)
    {
        (void)input;
        (void)grad_pre;
        (void)share;
        (void)shares;
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
