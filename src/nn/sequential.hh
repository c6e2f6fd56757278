/**
 * @file
 * Sequential model container with a training loop.
 *
 * This is the "DRL engine" substrate: a stack of layers trained by MSE
 * regression of access throughput. Divergence detection matches the
 * paper's Table II reporting (a model that collapses to a constant or
 * produces non-finite values is flagged as diverged).
 */

#ifndef GEO_NN_SEQUENTIAL_HH
#define GEO_NN_SEQUENTIAL_HH

#include <memory>
#include <string>
#include <vector>

#include "nn/dataset.hh"
#include "nn/layer.hh"
#include "nn/optimizer.hh"

namespace geo {
namespace nn {

/** Result of a full training run. */
struct TrainResult
{
    std::vector<double> trainLoss;      ///< per-epoch training loss
    std::vector<double> validationLoss; ///< per-epoch validation loss
    bool diverged = false;              ///< non-finite loss encountered
    double seconds = 0.0;               ///< wall-clock training time
};

/** Knobs for Sequential::train. */
struct TrainOptions
{
    size_t epochs = 200;   ///< paper: 200 epochs for the model search
    size_t batchSize = 32;
    bool shuffle = false;  ///< chronological batches by default
    uint64_t shuffleSeed = 1;
};

/**
 * A stack of layers applied in order.
 */
class Sequential
{
  public:
    Sequential() = default;

    // Models own their layers; moving is fine, copying is not.
    Sequential(const Sequential &) = delete;
    Sequential &operator=(const Sequential &) = delete;
    Sequential(Sequential &&) = default;
    Sequential &operator=(Sequential &&) = default;

    /** Append a layer; its input width must match the current output. */
    void add(std::unique_ptr<Layer> layer);

    size_t layerCount() const { return layers_.size(); }
    Layer &layer(size_t i) { return *layers_.at(i); }
    const Layer &layer(size_t i) const { return *layers_.at(i); }

    size_t inputSize() const;
    size_t outputSize() const;

    /** Forward pass without caching (inference). */
    Matrix predict(const Matrix &inputs);

    /** predict computed into `out` via the scratch arena — no
     *  allocations once the arena is sized (inference hot path). */
    void predictInto(const Matrix &inputs, Matrix &out);

    /**
     * Rows per forward pass when evaluate(), looksDiverged() or a
     * predictRows() caller walks a whole dataset. It bounds the
     * scratch arena, and chunking changes no bit of the result: every
     * GEMM path equals matmulNaive element by element, so a row's
     * output does not depend on the rows batched with it.
     */
    static constexpr size_t kForwardChunk = 256;

    /** Inference on rows [begin, end) of `inputs`, staged through the
     *  arena (no allocations once it is sized). The result lives in
     *  the arena until the next forward pass. */
    const Matrix &predictRows(const Matrix &inputs, size_t begin,
                              size_t end);

    /** All parameters across layers. The list is built once per
     *  model topology (add() invalidates it), so the step loop does
     *  not re-collect it every batch. */
    const std::vector<Matrix *> &parameters();

    /** All gradients across layers (aligned with parameters()). */
    const std::vector<Matrix *> &gradients();

    void zeroGrad();

    /** Total scalar parameter count. */
    size_t parameterCount();

    /**
     * Train with MSE loss.
     *
     * @param train training examples (consumed in mini-batches).
     * @param validation validation examples (may be empty).
     * @param opt optimizer (state persists across calls).
     * @param options epoch/batch configuration.
     */
    TrainResult train(const Dataset &train, const Dataset &validation,
                      SgdOptimizer &opt, const TrainOptions &options);

    /** One gradient step on a single batch; returns the batch loss. */
    double trainBatch(const Matrix &inputs, const Matrix &targets,
                      SgdOptimizer &opt);

    /** MSE over a dataset, one kForwardChunk at a time with a single
     *  running sum in row order (bitwise MseLoss over one pass). */
    double evaluate(const Dataset &data);

    /** "layer, layer, ..." summary matching the paper's Table I format. */
    std::string describe() const;

    /**
     * Check for divergence per the paper: predictions on `probe` are
     * non-finite or essentially constant while targets are not.
     * Predicts one kForwardChunk at a time, so it allocates nothing
     * once the arena is sized.
     */
    bool looksDiverged(const Dataset &probe);

  private:
    /** Arena-backed forward pass: layer i writes outputs_[i], so after
     *  a training pass every layer's input and output are still there
     *  for its backward (the layers keep pointers, not copies). Returns
     *  the final activations, which live in the arena. */
    const Matrix &runForward(const Matrix &inputs, bool training);

    /** Arena-backed backward pass (bwdA_/bwdB_ ping-pong) that
     *  accumulates every layer's parameter gradients. The first
     *  layer's input gradient is never formed: nothing reads it. */
    void runBackward(const Matrix &grad_output);

    std::vector<std::unique_ptr<Layer>> layers_;

    // Scratch arena for the training/inference hot paths: sized by the
    // first epoch, reused (capacity is never released) afterwards —
    // steady-state epochs allocate nothing (pinned by
    // tests/nn/test_alloc_regression.cc).
    std::vector<Matrix> outputs_; ///< one output buffer per layer
    Matrix bwdA_, bwdB_;       ///< backward gradient ping-pong
    Matrix lossGrad_;          ///< MSE gradient buffer
    Matrix batchIn_, batchTgt_; ///< staged mini-batch rows
    std::vector<size_t> order_; ///< train()'s row order

    std::vector<Matrix *> paramCache_;
    std::vector<Matrix *> gradCache_;
};

} // namespace nn
} // namespace geo

#endif // GEO_NN_SEQUENTIAL_HH
