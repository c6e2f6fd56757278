#include "nn/sequential.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "nn/loss.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/stats.hh"

namespace geo {
namespace nn {

void
Sequential::add(std::unique_ptr<Layer> layer)
{
    if (!layer)
        panic("Sequential::add: null layer");
    if (!layers_.empty() &&
        layers_.back()->outputSize() != layer->inputSize()) {
        panic("Sequential::add: layer input %zu != previous output %zu",
              layer->inputSize(), layers_.back()->outputSize());
    }
    layers_.push_back(std::move(layer));
    outputs_.resize(layers_.size());
    paramCache_.clear();
    gradCache_.clear();
}

size_t
Sequential::inputSize() const
{
    if (layers_.empty())
        panic("Sequential::inputSize on empty model");
    return layers_.front()->inputSize();
}

size_t
Sequential::outputSize() const
{
    if (layers_.empty())
        panic("Sequential::outputSize on empty model");
    return layers_.back()->outputSize();
}

const Matrix &
Sequential::runForward(const Matrix &inputs, bool training)
{
    const Matrix *cur = &inputs;
    for (size_t i = 0; i < layers_.size(); ++i) {
        layers_[i]->forwardInto(*cur, training, outputs_[i]);
        cur = &outputs_[i];
    }
    return *cur;
}

void
Sequential::runBackward(const Matrix &grad_output)
{
    if (layers_.empty())
        return;
    const Matrix *cur = &grad_output;
    Matrix *next = &bwdA_;
    for (size_t i = layers_.size() - 1; i > 0; --i) {
        layers_[i]->backwardInto(*cur, *next);
        cur = next;
        next = (next == &bwdA_) ? &bwdB_ : &bwdA_;
    }
    layers_.front()->backwardParams(*cur, *next);
}

Matrix
Sequential::predict(const Matrix &inputs)
{
    Matrix out;
    predictInto(inputs, out);
    return out;
}

void
Sequential::predictInto(const Matrix &inputs, Matrix &out)
{
    out = runForward(inputs, /*training=*/false);
}

const Matrix &
Sequential::predictRows(const Matrix &inputs, size_t begin, size_t end)
{
    inputs.rowRangeInto(begin, end, batchIn_);
    return runForward(batchIn_, /*training=*/false);
}

const std::vector<Matrix *> &
Sequential::parameters()
{
    if (paramCache_.empty())
        for (auto &layer : layers_)
            for (Matrix *p : layer->parameters())
                paramCache_.push_back(p);
    return paramCache_;
}

const std::vector<Matrix *> &
Sequential::gradients()
{
    if (gradCache_.empty())
        for (auto &layer : layers_)
            for (Matrix *g : layer->gradients())
                gradCache_.push_back(g);
    return gradCache_;
}

void
Sequential::zeroGrad()
{
    for (Matrix *g : gradients())
        g->zero();
}

size_t
Sequential::parameterCount()
{
    size_t total = 0;
    for (auto &layer : layers_)
        total += layer->parameterCount();
    return total;
}

double
Sequential::trainBatch(const Matrix &inputs, const Matrix &targets,
                       SgdOptimizer &opt)
{
    zeroGrad();
    const Matrix &predictions = runForward(inputs, /*training=*/true);
    double loss = MseLoss::value(predictions, targets);
    MseLoss::gradientInto(predictions, targets, lossGrad_);
    runBackward(lossGrad_);
    opt.step(parameters(), gradients());
    return loss;
}

TrainResult
Sequential::train(const Dataset &train_data, const Dataset &validation,
                  SgdOptimizer &opt, const TrainOptions &options)
{
    if (train_data.empty())
        panic("Sequential::train: empty training set");
    if (options.batchSize == 0)
        panic("Sequential::train: batchSize must be >= 1");

    TrainResult result;
    result.trainLoss.reserve(options.epochs);
    if (!validation.empty())
        result.validationLoss.reserve(options.epochs);
    auto start = std::chrono::steady_clock::now();

    size_t n = train_data.size();
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0);
    Rng shuffle_rng(options.shuffleSeed);

    for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
        if (options.shuffle)
            shuffle_rng.shuffle(order_);

        StatAccumulator epoch_loss;
        const size_t in_w = train_data.inputs.cols();
        const size_t tgt_w = train_data.targets.cols();
        for (size_t begin = 0; begin < n; begin += options.batchSize) {
            size_t end = std::min(begin + options.batchSize, n);
            // Stage rows directly into the arena buffers — no row()
            // temporaries, no per-batch matrices.
            batchIn_.reshape(end - begin, in_w);
            batchTgt_.reshape(end - begin, tgt_w);
            for (size_t i = begin; i < end; ++i) {
                const size_t r = order_[i];
                std::copy_n(&train_data.inputs.data()[r * in_w], in_w,
                            &batchIn_.data()[(i - begin) * in_w]);
                std::copy_n(&train_data.targets.data()[r * tgt_w], tgt_w,
                            &batchTgt_.data()[(i - begin) * tgt_w]);
            }
            double loss = trainBatch(batchIn_, batchTgt_, opt);
            if (!std::isfinite(loss)) {
                result.diverged = true;
                break;
            }
            epoch_loss.add(loss);
        }
        if (result.diverged)
            break;

        result.trainLoss.push_back(epoch_loss.mean());
        if (!validation.empty()) {
            double val = evaluate(validation);
            result.validationLoss.push_back(val);
            if (!std::isfinite(val)) {
                result.diverged = true;
                break;
            }
        }
    }

    auto elapsed = std::chrono::steady_clock::now() - start;
    result.seconds =
        std::chrono::duration<double>(elapsed).count();
    return result;
}

double
Sequential::evaluate(const Dataset &data)
{
    if (data.empty())
        panic("Sequential::evaluate: empty dataset");
    const size_t n = data.size();
    const size_t width = outputSize();
    if (data.targets.rows() != n || data.targets.cols() != width)
        panic("Sequential::evaluate: %zux%zu targets for %zu rows of "
              "%zu outputs", data.targets.rows(), data.targets.cols(), n,
              width);
    // MseLoss::value's sum, one chunk at a time: same terms, same order.
    double total = 0.0;
    for (size_t begin = 0; begin < n; begin += kForwardChunk) {
        const size_t end = std::min(n, begin + kForwardChunk);
        const Matrix &predictions = predictRows(data.inputs, begin, end);
        const double *targets = &data.targets.data()[begin * width];
        for (size_t i = 0; i < predictions.size(); ++i) {
            double d = predictions.data()[i] - targets[i];
            total += d * d;
        }
    }
    return total / static_cast<double>(n * width);
}

std::string
Sequential::describe() const
{
    std::string out;
    for (size_t i = 0; i < layers_.size(); ++i) {
        if (i)
            out += ", ";
        out += layers_[i]->describe();
    }
    return out;
}

bool
Sequential::looksDiverged(const Dataset &probe)
{
    if (probe.empty())
        return false;
    StatAccumulator pred_stats, target_stats;
    for (size_t begin = 0; begin < probe.size(); begin += kForwardChunk) {
        const Matrix &predictions = predictRows(
            probe.inputs, begin,
            std::min(probe.size(), begin + kForwardChunk));
        if (predictions.hasNonFinite())
            return true;
        for (double v : predictions.data())
            pred_stats.add(v);
    }
    // Constant predictions against varying targets = collapsed model
    // ("the same prediction happening over and over again").
    for (double v : probe.targets.data())
        target_stats.add(v);
    if (target_stats.stddev() <= 0.0)
        return false;
    return pred_stats.stddev() < 1e-6 * (std::fabs(pred_stats.mean()) + 1.0);
}

} // namespace nn
} // namespace geo
