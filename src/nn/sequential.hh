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

    /** All parameters across layers. */
    std::vector<Matrix *> parameters();

    /** All gradients across layers (aligned with parameters()). */
    std::vector<Matrix *> gradients();

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

    /** MSE over a dataset. */
    double evaluate(const Dataset &data);

    /** "layer, layer, ..." summary matching the paper's Table I format. */
    std::string describe() const;

    /**
     * Check for divergence per the paper: predictions on `probe` are
     * non-finite or essentially constant while targets are not.
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

    /** parameters()/gradients() pointer lists, built once per model
     *  topology (add() invalidates) so the step loop stops
     *  re-collecting them every batch. */
    const std::vector<Matrix *> &cachedParameters();
    const std::vector<Matrix *> &cachedGradients();

    std::vector<std::unique_ptr<Layer>> layers_;

    // Scratch arena for the training/inference hot paths: sized by the
    // first epoch, reused (capacity is never released) afterwards —
    // steady-state epochs allocate nothing (pinned by
    // tests/nn/test_alloc_regression.cc).
    std::vector<Matrix> outputs_; ///< one output buffer per layer
    Matrix bwdA_, bwdB_;       ///< backward gradient ping-pong
    Matrix lossGrad_;          ///< MSE gradient buffer
    Matrix batchIn_, batchTgt_; ///< staged mini-batch rows

    std::vector<Matrix *> paramCache_;
    std::vector<Matrix *> gradCache_;
};

} // namespace nn
} // namespace geo

#endif // GEO_NN_SEQUENTIAL_HH
