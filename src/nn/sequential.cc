#include "nn/sequential.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
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
    Matrix *next = &fwdA_;
    for (auto &layer : layers_) {
        layer->forwardInto(*cur, training, *next);
        cur = next;
        next = (next == &fwdA_) ? &fwdB_ : &fwdA_;
    }
    return *cur;
}

const Matrix &
Sequential::runBackward(const Matrix &grad_output)
{
    const Matrix *cur = &grad_output;
    Matrix *next = &bwdA_;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
        (*it)->backwardInto(*cur, *next);
        cur = next;
        next = (next == &bwdA_) ? &bwdB_ : &bwdA_;
    }
    return *cur;
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

Matrix
Sequential::forward(const Matrix &inputs)
{
    return runForward(inputs, /*training=*/true);
}

Matrix
Sequential::backward(const Matrix &grad_output)
{
    return runBackward(grad_output);
}

const std::vector<Matrix *> &
Sequential::cachedParameters()
{
    if (paramCache_.empty())
        for (auto &layer : layers_)
            for (Matrix *p : layer->parameters())
                paramCache_.push_back(p);
    return paramCache_;
}

const std::vector<Matrix *> &
Sequential::cachedGradients()
{
    if (gradCache_.empty())
        for (auto &layer : layers_)
            for (Matrix *g : layer->gradients())
                gradCache_.push_back(g);
    return gradCache_;
}

std::vector<Matrix *>
Sequential::parameters()
{
    return cachedParameters();
}

std::vector<Matrix *>
Sequential::gradients()
{
    return cachedGradients();
}

void
Sequential::zeroGrad()
{
    for (Matrix *g : cachedGradients())
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
    opt.step(cachedParameters(), cachedGradients());
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
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    Rng shuffle_rng(options.shuffleSeed);

    double best_val = std::numeric_limits<double>::infinity();
    size_t stale = 0;

    for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
        if (options.cancel && options.cancel->cancelled()) {
            result.cancelled = true;
            break;
        }
        if (options.shuffle)
            shuffle_rng.shuffle(order);

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
                const size_t r = order[i];
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
            if (options.earlyStopPatience > 0) {
                if (val < best_val - options.earlyStopMinDelta) {
                    best_val = val;
                    stale = 0;
                } else if (++stale >= options.earlyStopPatience) {
                    break;
                }
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
    return MseLoss::value(runForward(data.inputs, /*training=*/false),
                          data.targets);
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
    Matrix predictions = predict(probe.inputs);
    if (predictions.hasNonFinite())
        return true;
    // Constant predictions against varying targets = collapsed model
    // ("the same prediction happening over and over again").
    StatAccumulator pred_stats, target_stats;
    for (double v : predictions.data())
        pred_stats.add(v);
    for (double v : probe.targets.data())
        target_stats.add(v);
    if (target_stats.stddev() <= 0.0)
        return false;
    return pred_stats.stddev() < 1e-6 * (std::fabs(pred_stats.mean()) + 1.0);
}

} // namespace nn
} // namespace geo
