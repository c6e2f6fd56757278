/**
 * @file
 * google-benchmark micro-benchmarks for the overhead claims of
 * Sections V-E and VIII: neural-network training/prediction cost per
 * layer type and feature width, a full DrlEngine retrain, ReplayDB
 * insert/query throughput, audit-ledger and metric-primitive cost,
 * storage-simulator access cost, path encoding and smoothing.
 *
 * The micros are ungated. Decision-cycle timings, with bounds, live
 * in perfbench (BENCHMARK.json); the invariants the micros touch
 * (bitwise batched scoring, allocation-free steady-state training)
 * are ctest tests.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/decision_ledger.hh"
#include "core/drl_engine.hh"
#include "core/interface_daemon.hh"
#include "core/replay_db.hh"
#include "nn/model_zoo.hh"
#include "storage/bluesky.hh"
#include "trace/eos_trace_gen.hh"
#include "trace/path_encoder.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/smoothing.hh"

namespace geo {
namespace {

// --- Neural network -----------------------------------------------------

/** Forward pass of Table I model `number` (arg 0) at batch 64. */
void
BM_ModelPredict(benchmark::State &state)
{
    int number = static_cast<int>(state.range(0));
    Rng rng(1);
    nn::Sequential model = nn::buildModel(number, 6, rng);
    nn::Matrix inputs(64, model.inputSize());
    inputs.fillNormal(rng, 0.3);
    for (auto _ : state)
        benchmark::DoNotOptimize(model.predict(inputs));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ModelPredict)->Arg(1)->Arg(6)->Arg(12)->Arg(18);

/** Single candidate-batch prediction: one row per Bluesky mount. */
void
BM_CandidateScoring(benchmark::State &state)
{
    Rng rng(2);
    nn::Sequential model = nn::buildModel(1, 6, rng);
    nn::Matrix inputs(6, 6); // 6 candidate locations
    inputs.fillNormal(rng, 0.3);
    for (auto _ : state)
        benchmark::DoNotOptimize(model.predict(inputs));
}
BENCHMARK(BM_CandidateScoring);

/** One SGD training step of model 1 at batch 64. */
void
BM_ModelTrainStep(benchmark::State &state)
{
    Rng rng(3);
    nn::Sequential model = nn::buildModel(1, 6, rng);
    nn::Matrix inputs(64, 6);
    inputs.fillNormal(rng, 0.3);
    nn::Matrix targets(64, 1, 0.5);
    nn::SgdOptimizer opt(0.01);
    for (auto _ : state)
        benchmark::DoNotOptimize(model.trainBatch(inputs, targets, opt));
}
BENCHMARK(BM_ModelTrainStep);

/** Full-epoch cost scaling with feature width Z (arg 0). */
void
BM_TrainEpochByZ(benchmark::State &state)
{
    size_t z = static_cast<size_t>(state.range(0));
    Rng rng(4);
    nn::Sequential model = nn::buildModel(1, z, rng);
    nn::Dataset data;
    data.inputs = nn::Matrix(512, z);
    data.inputs.fillNormal(rng, 0.3);
    data.targets = nn::Matrix(512, 1, 0.5);
    nn::SgdOptimizer opt(0.01);
    nn::TrainOptions options;
    options.epochs = 1;
    options.batchSize = 64;
    for (auto _ : state)
        benchmark::DoNotOptimize(model.train(data, {}, opt, options));
}
BENCHMARK(BM_TrainEpochByZ)->Arg(6)->Arg(13);

/** One full epoch of model 1 with the DrlEngine's SGD configuration
 *  (the steady-state retrain inner loop). */
void
BM_TrainEpoch(benchmark::State &state)
{
    Rng rng(5);
    nn::Sequential model = nn::buildModel(1, 6, rng);
    nn::Dataset data;
    data.inputs = nn::Matrix(512, 6);
    data.inputs.fillNormal(rng, 0.3);
    data.targets = nn::Matrix(512, 1, 0.5);
    nn::SgdOptimizer opt(0.05, 5.0);
    nn::TrainOptions options;
    options.epochs = 1;
    options.batchSize = 32;
    for (auto _ : state)
        benchmark::DoNotOptimize(model.train(data, {}, opt, options));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_TrainEpoch);

// --- ReplayDB ------------------------------------------------------------

core::PerfRecord
sampleRecord(uint64_t i)
{
    core::PerfRecord rec;
    rec.file = i % 24;
    rec.device = static_cast<storage::DeviceId>(i % 6);
    rec.rb = 1000000;
    rec.ots = static_cast<int64_t>(i);
    rec.cts = static_cast<int64_t>(i) + 1;
    rec.throughput = 1e9;
    return rec;
}

void
BM_ReplayDbBatchInsert(benchmark::State &state)
{
    core::ReplayDb db;
    std::vector<core::PerfRecord> batch;
    for (uint64_t i = 0; i < 32; ++i)
        batch.push_back(sampleRecord(i));
    for (auto _ : state)
        db.insertAccesses(batch);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_ReplayDbBatchInsert);

/**
 * Cost of recording one representative decision cycle into the audit
 * ledger: 24 candidates scored over 6 devices, one prediction row, one
 * migration outcome and the end-of-cycle summary, atomic flush
 * included. This is the whole per-cycle overhead a `--ledger-out` run
 * adds to the pipeline. Ungated: end to end, the ledger's cost sits
 * inside perfbench's fleet_durable decision_ms_p50/p75, whose every
 * round writes one ledger per shard (its traced run also reports
 * ledger.rows and ledger.bytes).
 */
void
BM_LedgerOverhead(benchmark::State &state)
{
    const std::string path = "bm-ledger-overhead.ndjson";
    auto ledger = std::make_unique<core::DecisionLedger>(path);
    std::array<double, core::kLiveFeatureCount> features{
        425082.0, 0.0, 28.9, 28.9, 0.0, 0.0};
    std::vector<core::LedgerScore> scores;
    std::vector<std::pair<storage::DeviceId, std::pair<double, uint64_t>>>
        by_device;
    for (storage::DeviceId d = 0; d < 6; ++d) {
        scores.push_back({d, 1e9 + 1e7 * d, static_cast<int>(d) + 1});
        by_device.push_back({d, {9.5e8, 24}});
    }
    core::AppliedMove move;
    move.file = 3;
    move.to = 1;
    uint64_t cycle = 0;
    for (auto _ : state) {
        ++cycle;
        // Bound the accumulated file at a mid-length run's size; the
        // atomic flush rewrites the whole ledger, so growth is part of
        // the real per-cycle cost up to that horizon.
        if (cycle % 64 == 0)
            ledger = std::make_unique<core::DecisionLedger>(path);
        ledger->beginCycle(cycle, static_cast<double>(cycle) * 60.0,
                           false, false);
        ledger->recordPhase("monitor", 0.002, 0.05);
        ledger->recordPhase("train", 0.02, 0.2);
        for (storage::FileId file = 0; file < 24; ++file)
            ledger->recordCandidate(file, 0, features, scores,
                                    file == 3 ? "selected" : "stay_put",
                                    1, 0.2, false, file == 3);
        ledger->recordPrediction(static_cast<int64_t>(cycle) * 700,
                                 by_device);
        ledger->recordOutcome(move);
        ledger->endCycle({});
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    std::remove(path.c_str());
}
BENCHMARK(BM_LedgerOverhead);

/**
 * A ReplayDB of `rows` sampleRecord rows, except that every 200th row
 * goes to device 6 and file 24 when `rare`: keys whose rows sit far
 * apart, so a fill from SQLite walks the whole table back.
 */
void
fillReplayDb(core::ReplayDb &db, uint64_t rows, bool rare)
{
    std::vector<core::PerfRecord> batch;
    for (uint64_t i = 0; i < rows; ++i) {
        batch.push_back(sampleRecord(i));
        if (rare && i % 200 == 0) {
            batch.back().device = 6;
            batch.back().file = 24;
        }
    }
    db.insertAccesses(batch);
}

/**
 * Drop the ReplayDB's rings before each read when `cold`, with a
 * rewind to the current watermark, so the read pays the SQL fill that
 * the first decision after an open or a restore pays.
 */
void
coldStart(benchmark::State &state, core::ReplayDb &db, bool cold)
{
    if (!cold)
        return;
    state.PauseTiming();
    db.rewindTo(db.watermark());
    state.ResumeTiming();
}

/**
 * One device's 2000-row window, warm (a read of the device's ring) or
 * cold. Uniform (rare:0), the device holds 1 row in 6 of 20,000;
 * rare:1, device 6 holds 1 row in 200 of 120,000.
 */
void
BM_ReplayDbWindowQuery(benchmark::State &state)
{
    core::ReplayDb db;
    bool rare = state.range(1) != 0;
    fillReplayDb(db, rare ? 120000 : 20000, rare);
    for (auto _ : state) {
        coldStart(state, db, state.range(0) != 0);
        benchmark::DoNotOptimize(db.deviceWindow(rare ? 6 : 2, 2000).size());
    }
}
BENCHMARK(BM_ReplayDbWindowQuery)
    ->ArgNames({"cold", "rare"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

/**
 * One file's 64-row history, as the gap predictor reads it, warm (a
 * read of the file's ring) or cold. Uniform (rare:0), the file holds
 * 1 row in 24 of 20,000; rare:1, file 24 holds 1 row in 200 of
 * 120,000.
 */
void
BM_ReplayDbFileHistory(benchmark::State &state)
{
    core::ReplayDb db;
    bool rare = state.range(1) != 0;
    fillReplayDb(db, rare ? 120000 : 20000, rare);
    for (auto _ : state) {
        coldStart(state, db, state.range(0) != 0);
        benchmark::DoNotOptimize(
            db.recentAccessesForFile(rare ? 24 : 2, 64).size());
    }
}
BENCHMARK(BM_ReplayDbFileHistory)
    ->ArgNames({"cold", "rare"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

/** Full training-batch preparation (the Interface Daemon pipeline),
 *  warm and cold as for BM_ReplayDbWindowQuery. */
void
BM_TrainingBatchBuild(benchmark::State &state)
{
    core::ReplayDb db;
    core::InterfaceDaemon daemon(db);
    fillReplayDb(db, 12000, false);
    for (auto _ : state) {
        coldStart(state, db, state.range(0) != 0);
        benchmark::DoNotOptimize(
            daemon.buildTrainingBatch({0, 1, 2, 3, 4, 5}));
    }
}
BENCHMARK(BM_TrainingBatchBuild)->ArgName("cold")->Arg(0)->Arg(1);

// --- Storage simulator ----------------------------------------------------

void
BM_StorageAccess(benchmark::State &state)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 100 << 20, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(system->access(file, 10 << 20, true));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StorageAccess);

void
BM_StorageMigration(benchmark::State &state)
{
    auto system = storage::makeBlueskySystem();
    storage::FileId file = system->addFile("f", 100 << 20, 0);
    storage::DeviceId target = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(system->moveFile(file, target));
        target = target == 1 ? 2 : 1;
    }
}
BENCHMARK(BM_StorageMigration);

// --- Trace utilities --------------------------------------------------------

void
BM_PathEncode(benchmark::State &state)
{
    trace::PathEncoder encoder;
    std::vector<std::string> paths;
    for (int i = 0; i < 256; ++i)
        paths.push_back(strprintf("eos/pool%d/run%03d/data%05d.root",
                                  i % 4, i % 24, i));
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(encoder.encode(paths[i % paths.size()]));
        ++i;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PathEncode);

void
BM_EosTraceGeneration(benchmark::State &state)
{
    trace::EosTraceGenerator gen({});
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.generate(1000));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            1000);
}
BENCHMARK(BM_EosTraceGeneration);

/**
 * Cost of one counter increment + one histogram record — the pair the
 * instrumented hot paths pay per event.  Keeps the observability layer
 * honest about its "negligible overhead" claim.
 */
void
BM_MetricsOverhead(benchmark::State &state)
{
    util::MetricRegistry registry;
    util::Counter &counter = registry.counter("bench.events");
    util::Histogram &histogram = registry.histogram("bench.latency");
    double value = 0.125;
    for (auto _ : state) {
        counter.inc();
        histogram.record(value);
        value += 0.001;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsOverhead);

void
BM_MovingAverage(benchmark::State &state)
{
    std::vector<double> series(12000);
    Rng rng(5);
    for (double &v : series)
        v = rng.uniform();
    for (auto _ : state)
        benchmark::DoNotOptimize(movingAverage(series, 8));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            12000);
}
BENCHMARK(BM_MovingAverage);

// --- Retrain --------------------------------------------------------------

/** Synthetic telemetry with enough variance to train on. */
std::vector<core::PerfRecord>
syntheticRecords(size_t count)
{
    Rng rng(11);
    std::vector<core::PerfRecord> records;
    records.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        core::PerfRecord rec = sampleRecord(i);
        rec.rb = 500000 + static_cast<int64_t>(rng.uniform(0.0, 1e6));
        rec.throughput = 4e8 + 2e8 * static_cast<double>(i % 6) +
                         rng.uniform(0.0, 1e8);
        records.push_back(rec);
    }
    return records;
}

/** DrlEngine::retrain end to end: split, epochs, divergence probe. */
void
BM_FullRetrain(benchmark::State &state)
{
    std::vector<core::PerfRecord> records = syntheticRecords(2000);
    core::ReplayDb db;
    core::InterfaceDaemon daemon(db);
    daemon.receiveBatch(records);
    core::DrlConfig config;
    config.epochs = static_cast<size_t>(state.range(0));
    core::DrlEngine engine(config);
    auto batch = daemon.buildTrainingBatch({0, 1, 2, 3, 4, 5});
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.retrain(batch));
}
BENCHMARK(BM_FullRetrain)->Arg(5)->Arg(40);

} // namespace
} // namespace geo

BENCHMARK_MAIN();
