#include "nn/sequential.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "nn/loss.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace geo {
namespace nn {

namespace {

/** Member `member`'s share [first, second) of `count` items. */
std::pair<size_t, size_t>
share(size_t count, size_t member, size_t members)
{
    return {count * member / members, count * (member + 1) / members};
}

} // namespace

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
    deltas_.resize(layers_.size());
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
Sequential::runForward(const Matrix &inputs)
{
    const Matrix *cur = &inputs;
    for (size_t i = 0; i < layers_.size(); ++i) {
        layers_[i]->forwardInto(*cur, /*training=*/false, outputs_[i]);
        cur = &outputs_[i];
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
    out = runForward(inputs);
}

const Matrix &
Sequential::predictRows(const Matrix &inputs, size_t begin, size_t end)
{
    inputs.rowRangeInto(begin, end, batchIn_);
    return runForward(batchIn_);
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

void
Sequential::shapeArena(size_t rows, bool training)
{
    batchIn_.reshape(rows, inputSize());
    for (size_t i = 0; i < layers_.size(); ++i)
        outputs_[i].reshape(rows, layers_[i]->outputSize());
    if (!training)
        return;
    batchTgt_.reshape(rows, outputSize());
    for (size_t i = 0; i < layers_.size(); ++i)
        deltas_[i].reshape(rows, layers_[i]->outputSize());
}

double
Sequential::teamBatch(size_t member, util::Team &team, ArenaShape &shape,
                      const Matrix &inputs, const Matrix &targets,
                      const size_t *rows, size_t n, SgdOptimizer &opt)
{
    const size_t members = team.size();
    if (shape.rows != n || !shape.training) {
        if (member == 0)
            shapeArena(n, /*training=*/true);
        team.barrier();
        shape = {n, true};
    }
    const std::vector<Matrix *> &params = paramCache_;
    const std::vector<Matrix *> &grads = gradCache_;

    // Phase 1, row-local: zero this member's share of the gradients,
    // then take its rows through the forward, the loss gradient and
    // the input-gradient chain.
    for (Matrix *g : grads) {
        const auto [first, last] = share(g->size(), member, members);
        std::fill(g->data().begin() + static_cast<long>(first),
                  g->data().begin() + static_cast<long>(last), 0.0);
    }
    const Matrix *in = &inputs, *tgt = &targets;
    const auto [r0, r1] = share(n, member, members);
    if (rows) {
        const size_t in_w = inputs.cols(), tgt_w = targets.cols();
        for (size_t i = r0; i < r1; ++i) {
            std::copy_n(&inputs.data()[rows[i] * in_w], in_w,
                        &batchIn_.data()[i * in_w]);
            std::copy_n(&targets.data()[rows[i] * tgt_w], tgt_w,
                        &batchTgt_.data()[i * tgt_w]);
        }
        in = &batchIn_;
        tgt = &batchTgt_;
    }
    const size_t layers = layers_.size();
    if (r0 < r1) {
        const Matrix *x = in;
        for (size_t i = 0; i < layers; ++i) {
            layers_[i]->forwardRows(*x, outputs_[i], r0, r1);
            x = &outputs_[i];
        }
        MseLoss::gradientInto(outputs_.back(), *tgt, deltas_.back(), r0, r1);
        // The first layer's input gradient is never formed: nothing
        // reads it.
        for (size_t i = layers; i-- > 0;)
            layers_[i]->backwardRows(outputs_[i], deltas_[i], deltas_[i],
                                     i ? &deltas_[i - 1] : nullptr, r0, r1);
    }
    team.barrier();

    // Phase 2, by output element: this member's share of every
    // parameter gradient, each element summed over all rows.
    for (size_t i = 0; i < layers; ++i)
        layers_[i]->accumulateGradients(i ? outputs_[i - 1] : *in,
                                        deltas_[i], member, members);
    if (member == 0)
        batchLoss_ = MseLoss::value(outputs_.back(), *tgt);
    team.barrier();

    // Phase 3, the step: each tensor's norm whole on one member, then
    // every member folds them into the same scale and updates its
    // share of every tensor.
    if (opt.clips()) {
        for (size_t t = member; t < grads.size(); t += members)
            gradNorms_[t] = grads[t]->norm();
        team.barrier();
    }
    const double scale = opt.clipScale(gradNorms_.data(), grads.size());
    for (size_t t = 0; t < params.size(); ++t) {
        const auto [first, last] = share(params[t]->size(), member, members);
        opt.updateRange(*params[t], *grads[t], scale, first, last);
    }
    team.barrier();
    return batchLoss_;
}

double
Sequential::trainBatch(const Matrix &inputs, const Matrix &targets,
                       SgdOptimizer &opt)
{
    gradNorms_.resize(parameters().size());
    gradients();
    util::Team solo(1);
    ArenaShape shape;
    return teamBatch(0, solo, shape, inputs, targets, nullptr, inputs.rows(),
                     opt);
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
    // Members read the parameter lists; build them before the team.
    gradNorms_.resize(parameters().size());
    gradients();

    // Members of the last train()'s team. Metric scopes enclose the
    // construction of components, never a retrain, so this resolves
    // the one process-wide name.
    static util::Gauge &team_gauge =
        util::MetricRegistry::global().gauge("nn.train.team");
    auto member_loop = [&](size_t member, util::Team &team) {
        if (member == 0)
            team_gauge.set(static_cast<double>(team.size()));
        ArenaShape shape;
        for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
            if (options.shuffle) {
                if (member == 0)
                    shuffle_rng.shuffle(order_);
                team.barrier();
            }
            StatAccumulator epoch_loss;
            bool diverged = false;
            for (size_t begin = 0; begin < n; begin += options.batchSize) {
                size_t end = std::min(begin + options.batchSize, n);
                double loss = teamBatch(member, team, shape, train_data.inputs,
                                        train_data.targets, &order_[begin],
                                        end - begin, opt);
                if (!std::isfinite(loss)) {
                    diverged = true;
                    break;
                }
                epoch_loss.add(loss);
            }
            if (!diverged && !validation.empty()) {
                double val = teamEvaluate(member, team, shape, validation);
                if (member == 0) {
                    result.trainLoss.push_back(epoch_loss.mean());
                    result.validationLoss.push_back(val);
                }
                diverged = !std::isfinite(val);
            } else if (!diverged && member == 0) {
                result.trainLoss.push_back(epoch_loss.mean());
            }
            if (diverged) {
                if (member == 0)
                    result.diverged = true;
                break;
            }
        }
    };
    if (std::all_of(layers_.begin(), layers_.end(),
                    [](const auto &layer) { return layer->rowLocal(); })) {
        util::ThreadPool::global().runTeam(member_loop);
    } else {
        util::Team solo(1);
        member_loop(0, solo);
    }

    auto elapsed = std::chrono::steady_clock::now() - start;
    result.seconds =
        std::chrono::duration<double>(elapsed).count();
    return result;
}

double
Sequential::evaluate(const Dataset &data)
{
    util::Team solo(1);
    ArenaShape shape;
    return teamEvaluate(0, solo, shape, data);
}

double
Sequential::teamEvaluate(size_t member, util::Team &team, ArenaShape &shape,
                         const Dataset &data)
{
    if (data.empty())
        panic("Sequential::evaluate: empty dataset");
    const size_t n = data.size();
    const size_t width = outputSize();
    if (data.targets.rows() != n || data.targets.cols() != width)
        panic("Sequential::evaluate: %zux%zu targets for %zu rows of "
              "%zu outputs", data.targets.rows(), data.targets.cols(), n,
              width);
    // kForwardChunk rows at a time through the arena. Each member owns
    // the same rows of every chunk, so chunks need no barrier between
    // them; each squared error lands at its row's place, and member 0
    // sums them in row order: MseLoss::value's terms, in its order.
    const size_t chunk = std::min(n, kForwardChunk);
    if (member == 0) {
        if (shape.rows != chunk || shape.training)
            shapeArena(chunk, /*training=*/false);
        evalTerms_.resize(n * width);
    }
    team.barrier();
    shape = {chunk, false};
    const auto [s0, s1] = share(chunk, member, team.size());
    const size_t in_w = data.inputs.cols();
    for (size_t begin = 0; begin < n; begin += chunk) {
        const size_t len = std::min(chunk, n - begin);
        const size_t r0 = std::min(s0, len), r1 = std::min(s1, len);
        if (r0 == r1)
            continue;
        std::copy_n(&data.inputs.data()[(begin + r0) * in_w],
                    (r1 - r0) * in_w, &batchIn_.data()[r0 * in_w]);
        const Matrix *x = &batchIn_;
        for (size_t i = 0; i < layers_.size(); ++i) {
            layers_[i]->forwardRows(*x, outputs_[i], r0, r1);
            x = &outputs_[i];
        }
        const double *predictions = outputs_.back().data().data();
        const double *targets = &data.targets.data()[begin * width];
        for (size_t j = r0 * width; j < r1 * width; ++j) {
            double d = predictions[j] - targets[j];
            evalTerms_[begin * width + j] = d * d;
        }
    }
    team.barrier();
    if (member == 0) {
        double total = 0.0;
        for (size_t j = 0; j < n * width; ++j)
            total += evalTerms_[j];
        evalLoss_ = total / static_cast<double>(n * width);
    }
    team.barrier();
    return evalLoss_;
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
