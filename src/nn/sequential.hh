/**
 * @file
 * Sequential model container with a training loop.
 *
 * This is the "DRL engine" substrate: a stack of layers trained by MSE
 * regression of access throughput. Divergence detection matches the
 * paper's Table II reporting (a model that collapses to a constant or
 * produces non-finite values is flagged as diverged).
 *
 * train() runs every mini-batch, and each epoch's validation
 * evaluate(), on a team (util::ThreadPool::runTeam): the caller plus
 * the idle workers of the global pool, or the caller alone when the
 * pool is busy, when it is called from a worker, or when a layer is
 * not row-local (see layer.hh). Each member owns a fixed slice of the
 * batch rows through every layer's forward, the loss gradient and the
 * input-gradient chain. After a barrier the members split the
 * parameter gradients by output element, each element still the same
 * ascending sum over all rows, and then the SGD step, so weights,
 * losses and divergence are bitwise those of a team of one at every
 * team size. The gauge `nn.train.team` holds the last train()'s team
 * size.
 */

#ifndef GEO_NN_SEQUENTIAL_HH
#define GEO_NN_SEQUENTIAL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/dataset.hh"
#include "nn/layer.hh"
#include "nn/optimizer.hh"

namespace geo {
namespace util {
class Team;
} // namespace util

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

    /** One gradient step on a single batch, with train()'s batch body
     *  on a team of one; returns the batch loss. */
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
    /** Arena-backed inference forward pass: layer i writes
     *  outputs_[i]. Returns the final activations, which live in the
     *  arena. */
    const Matrix &runForward(const Matrix &inputs);

    /** The batch size a member last saw the arena shaped for, and
     *  whether for training; each member keeps its own copy. */
    struct ArenaShape
    {
        size_t rows = SIZE_MAX;
        bool training = false;
    };

    /** Reshape the arena for `rows` rows (member 0 only, between two
     *  barriers; the training buffers only when `training`). */
    void shapeArena(size_t rows, bool training);

    /**
     * One mini-batch, run by every member of `team`: gradients zeroed
     * and n rows trained, the rows of `inputs`/`targets` listed in
     * `rows` (staged through the arena), or all of them as they stand
     * when `rows` is null. Returns the batch loss, the same value on
     * every member; the step is taken even when it is not finite.
     */
    double teamBatch(size_t member, util::Team &team, ArenaShape &shape,
                     const Matrix &inputs, const Matrix &targets,
                     const size_t *rows, size_t n, SgdOptimizer &opt);

    /** evaluate() run by every member of `team`; the same MSE on
     *  every member. */
    double teamEvaluate(size_t member, util::Team &team, ArenaShape &shape,
                        const Dataset &data);

    std::vector<std::unique_ptr<Layer>> layers_;

    // Scratch arena for the training/inference hot paths: sized by the
    // first epoch, reused (capacity is never released) afterwards —
    // steady-state epochs allocate nothing (pinned by
    // tests/nn/test_alloc_regression.cc). A team's members write
    // their own rows of the batch-shaped buffers.
    std::vector<Matrix> outputs_; ///< one output buffer per layer
    /// Per layer: the loss gradient w.r.t. its output, turned in place
    /// into the gradient w.r.t. its pre-activation.
    std::vector<Matrix> deltas_;
    Matrix batchIn_, batchTgt_; ///< staged mini-batch rows
    std::vector<size_t> order_; ///< train()'s row order
    std::vector<double> gradNorms_; ///< per tensor, for the clip scale
    std::vector<double> evalTerms_; ///< evaluate()'s squared errors
    double batchLoss_ = 0.0;        ///< the batch loss member 0 summed
    double evalLoss_ = 0.0;         ///< the MSE member 0 summed

    std::vector<Matrix *> paramCache_;
    std::vector<Matrix *> gradCache_;
};

} // namespace nn
} // namespace geo

#endif // GEO_NN_SEQUENTIAL_HH
