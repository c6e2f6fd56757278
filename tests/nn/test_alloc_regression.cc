/**
 * @file
 * Allocation regression tests for the training hot path.
 *
 * Matrix counts every element-buffer acquisition (construction,
 * copies that regrow, reshape growth). The first training epoch may
 * size the Sequential scratch arena, the layer caches, the optimizer
 * moments and the kernel pack buffers — but epochs 2..N must reuse
 * all of it: the counter has to stay exactly flat. A regression here
 * means someone reintroduced a per-batch temporary into
 * forward/backward/step.
 */

#include <gtest/gtest.h>

#include "core/drl_engine.hh"
#include "nn/dataset.hh"
#include "nn/model_zoo.hh"
#include "nn/optimizer.hh"
#include "nn/sequential.hh"
#include "util/random.hh"

namespace geo {
namespace nn {
namespace {

Dataset
syntheticData(size_t examples, size_t features, Rng &rng)
{
    Dataset data;
    data.inputs = Matrix(examples, features);
    data.inputs.fillNormal(rng, 0.5);
    data.targets = Matrix(examples, 1);
    data.targets.fillNormal(rng, 1.0);
    return data;
}

/**
 * Train one sizing epoch, then `epochs` more, and return how many
 * Matrix buffers the later epochs acquired. Model 1 with the
 * DrlEngine's SGD configuration at batch 32; no validation set when
 * `validation_rows` is 0.
 */
uint64_t
steadyStateEpochAllocs(size_t train_rows, size_t validation_rows,
                       size_t epochs)
{
    Rng rng(17);
    Sequential model = buildModel(1, 6, rng); // paper's winning stack
    SgdOptimizer opt(0.05, 5.0);              // DrlEngine's configuration
    Dataset train = syntheticData(train_rows, model.inputSize(), rng);
    Dataset validation;
    if (validation_rows > 0)
        validation = syntheticData(validation_rows, model.inputSize(), rng);

    TrainOptions options;
    options.epochs = 1;
    options.batchSize = 32;
    // Epoch 1: sizes the arena, layer scratch and pack buffers.
    model.train(train, validation, opt, options);

    const uint64_t before = Matrix::allocationCount();
    options.epochs = epochs;
    TrainResult result = model.train(train, validation, opt, options);
    const uint64_t after = Matrix::allocationCount();
    EXPECT_FALSE(result.diverged);
    return after - before;
}

TEST(AllocRegression, SteadyStateTrainEpochsAllocateNothing)
{
    EXPECT_EQ(steadyStateEpochAllocs(192, 48, 4), 0u)
        << "steady-state epochs must not acquire Matrix buffers";
    // The bench-size shape: 512 rows, no validation, three epochs.
    EXPECT_EQ(steadyStateEpochAllocs(512, 0, 3), 0u)
        << "steady-state epochs must not acquire Matrix buffers at 512 "
           "rows";
}

TEST(AllocRegression, SecondRetrainOfSameShapeAllocatesNothing)
{
    // The split, the validation and divergence passes (chunked) and
    // the rollback copy all reuse buffers the engine already owns.
    Rng rng(23);
    Matrix raw_inputs(600, core::kLiveFeatureCount);
    raw_inputs.fillNormal(rng, 1.0);
    Matrix raw_targets(600, 1);
    for (double &v : raw_targets.data())
        v = rng.uniform(1e8, 2e9); // bytes/s, away from the MAE floor
    core::TrainingBatch batch;
    batch.featureNorm.fit(raw_inputs);
    batch.targetNorm.fit(raw_targets);
    batch.dataset.inputs = batch.featureNorm.transform(raw_inputs);
    batch.dataset.targets = batch.targetNorm.transform(raw_targets);

    core::DrlConfig config;
    config.epochs = 2;
    core::DrlEngine engine(config);
    core::RetrainStats first = engine.retrain(batch);
    ASSERT_TRUE(first.trained);
    ASSERT_FALSE(first.diverged);

    const uint64_t before = Matrix::allocationCount();
    core::RetrainStats second = engine.retrain(batch);
    const uint64_t after = Matrix::allocationCount();

    EXPECT_TRUE(second.trained);
    EXPECT_FALSE(second.diverged);
    EXPECT_EQ(after - before, 0u)
        << "a steady-state retrain must not acquire Matrix buffers";
}

TEST(AllocRegression, PredictIntoReusesOutputBuffer)
{
    Rng rng(31);
    Sequential model = buildModel(1, 6, rng);
    Matrix probe(16, model.inputSize());
    probe.fillNormal(rng, 0.3);

    Matrix out;
    model.predictInto(probe, out); // sizes arena + out

    const uint64_t before = Matrix::allocationCount();
    for (int i = 0; i < 5; ++i)
        model.predictInto(probe, out);
    const uint64_t after = Matrix::allocationCount();

    EXPECT_EQ(after - before, 0u)
        << "repeated predictInto must not acquire Matrix buffers";
}

TEST(AllocRegression, CounterSeesConstructionAndGrowth)
{
    const uint64_t base = Matrix::allocationCount();
    Matrix a(4, 4);
    EXPECT_EQ(Matrix::allocationCount() - base, 1u);
    Matrix b = a; // copy acquires
    EXPECT_EQ(Matrix::allocationCount() - base, 2u);
    b.reshape(2, 2); // shrink reuses capacity
    EXPECT_EQ(Matrix::allocationCount() - base, 2u);
    b.reshape(8, 8); // growth acquires
    EXPECT_EQ(Matrix::allocationCount() - base, 3u);
    Matrix c = std::move(a); // move transfers, no acquisition
    EXPECT_EQ(Matrix::allocationCount() - base, 3u);
    (void)c;
}

} // namespace
} // namespace nn
} // namespace geo
