/**
 * @file
 * google-benchmark micro-benchmarks for the overhead claims of
 * Sections V-E and VIII: neural-network training/prediction cost per
 * layer type and feature width, ReplayDB insert/query throughput,
 * storage-simulator access cost, path encoding and smoothing.
 *
 * The binary also runs a structured perf suite (tracked baseline)
 * before the google micros and writes it to BENCH_perf.json:
 * naive-vs-fast GEMM (packed register-blocked kernel), training-path
 * timings (steady-state epoch, full retrain, arena alloc count),
 * one-row-vs-batched candidate scoring, one full Geomancy decision
 * cycle, model-search scaling over 1/2/4 workers, and
 * metric-primitive overhead (counter/histogram ns per op).
 * Knobs: GEO_PERF_OUT (output path), GEO_PERF_QUICK=1
 * (small sizes), GEO_SKIP_PERF=1 / GEO_SKIP_MICRO=1 (skip a half).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/decision_ledger.hh"
#include "core/geomancy.hh"
#include "core/interface_daemon.hh"
#include "core/replay_db.hh"
#include "model_search_common.hh"
#include "nn/model_zoo.hh"
#include "storage/bluesky.hh"
#include "trace/eos_trace_gen.hh"
#include "trace/path_encoder.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/smoothing.hh"
#include "util/thread_pool.hh"
#include "workload/belle2.hh"

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
BM_ReplayDbInsert(benchmark::State &state)
{
    core::ReplayDb db;
    uint64_t i = 0;
    for (auto _ : state)
        db.insertAccess(sampleRecord(i++));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ReplayDbInsert);

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
 * adds to the pipeline; compare against full_cycle.cycle_ms in
 * BENCH_perf.json (the <2 % budget is asserted by the perf suite's
 * ledger_overhead section).
 */
void
BM_LedgerOverhead(benchmark::State &state)
{
    const std::string path = "bm-ledger-overhead.ndjson";
    auto ledger = std::make_unique<core::DecisionLedger>(path);
    std::vector<double> features{425082.0, 0.0, 28.9, 28.9, 0.0, 0.0};
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

void
BM_ReplayDbWindowQuery(benchmark::State &state)
{
    core::ReplayDb db;
    std::vector<core::PerfRecord> batch;
    for (uint64_t i = 0; i < 20000; ++i)
        batch.push_back(sampleRecord(i));
    db.insertAccesses(batch);
    for (auto _ : state)
        benchmark::DoNotOptimize(db.recentAccessesForDevice(2, 2000));
}
BENCHMARK(BM_ReplayDbWindowQuery);

/** Full training-batch preparation (the Interface Daemon pipeline). */
void
BM_TrainingBatchBuild(benchmark::State &state)
{
    core::ReplayDb db;
    core::InterfaceDaemon daemon(db);
    std::vector<core::PerfRecord> batch;
    for (uint64_t i = 0; i < 12000; ++i)
        batch.push_back(sampleRecord(i));
    db.insertAccesses(batch);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            daemon.buildTrainingBatch({0, 1, 2, 3, 4, 5}));
}
BENCHMARK(BM_TrainingBatchBuild);

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

// --- Tracked perf baseline (BENCH_perf.json) ------------------------------

/** Best-of-`reps` wall-clock milliseconds of `fn()`. */
template <typename F>
double
bestMillis(F &&fn, int reps)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (ms < best)
            best = ms;
    }
    return best;
}

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

struct GemmResult
{
    size_t m, k, n;
    double naiveMs = 0.0;
    double fastMs = 0.0;
};

GemmResult
timeGemm(size_t m, size_t k, size_t n, int reps)
{
    Rng rng(21);
    nn::Matrix a(m, k), b(k, n);
    a.fillNormal(rng, 0.5);
    b.fillNormal(rng, 0.5);
    GemmResult r{m, k, n, 1e300, 1e300};
    nn::Matrix out;
    // Interleave the two measurements: back-to-back best-of blocks
    // are biased by clock/cache drift on shared hosts.
    for (int rep = 0; rep < reps; ++rep) {
        r.naiveMs = std::min(
            r.naiveMs, bestMillis([&]() { out = a.matmulNaive(b); }, 1));
        // Production path: shape plan picks plain-ikj or the packed
        // register-blocked kernel; pool-parallel above the flops
        // threshold (on a 1-core host this stays serial).
        r.fastMs = std::min(
            r.fastMs, bestMillis([&]() { a.matmulInto(b, out); }, 1));
    }
    return r;
}

struct TrainTimings
{
    double epochMs = 0.0;
    double retrainMs = 0.0;
    size_t retrainEpochs = 0;
    uint64_t steadyAllocs = 0;
};

/**
 * Tracked training-path timings: one steady-state epoch of the
 * winning model, a full DrlEngine::retrain, and the number of Matrix
 * buffer acquisitions across steady-state epochs (must stay 0 — the
 * scratch arena is sized by the warm-up epoch).
 */
TrainTimings
timeTrain(bool quick)
{
    TrainTimings t;

    Rng rng(33);
    nn::Sequential model = nn::buildModel(1, 6, rng);
    nn::Dataset data;
    data.inputs = nn::Matrix(512, 6);
    data.inputs.fillNormal(rng, 0.3);
    data.targets = nn::Matrix(512, 1);
    data.targets.fillNormal(rng, 0.5);
    nn::SgdOptimizer opt(0.05, 5.0);
    nn::TrainOptions options;
    options.epochs = 1;
    options.batchSize = 32;
    model.train(data, {}, opt, options); // sizes the arena
    t.epochMs = 1e300;
    for (int rep = 0; rep < (quick ? 3 : 5); ++rep)
        t.epochMs = std::min(t.epochMs, bestMillis([&]() {
            model.train(data, {}, opt, options);
        }, 1));
    const uint64_t before = nn::Matrix::allocationCount();
    options.epochs = 3;
    model.train(data, {}, opt, options);
    t.steadyAllocs = nn::Matrix::allocationCount() - before;

    std::vector<core::PerfRecord> records = syntheticRecords(2000);
    core::ReplayDb db;
    core::InterfaceDaemon daemon(db);
    daemon.receiveBatch(records);
    core::DrlConfig config;
    config.epochs = quick ? 5 : 40;
    t.retrainEpochs = config.epochs;
    core::DrlEngine engine(config);
    auto batch = daemon.buildTrainingBatch({0, 1, 2, 3, 4, 5});
    engine.retrain(batch); // warm caches and arena
    t.retrainMs = 1e300;
    for (int rep = 0; rep < (quick ? 2 : 3); ++rep)
        t.retrainMs = std::min(
            t.retrainMs, bestMillis([&]() { engine.retrain(batch); }, 1));
    return t;
}

struct ScoringResult
{
    size_t files = 0;
    size_t devices = 0;
    double scalarMs = 0.0;
    double batchedMs = 0.0;
    bool bitwiseEqual = true;
    bool trained = false;
};

ScoringResult
timeCandidateScoring(bool quick)
{
    ScoringResult result;
    std::vector<core::PerfRecord> records = syntheticRecords(2000);
    core::ReplayDb db;
    core::InterfaceDaemon daemon(db);
    daemon.receiveBatch(records);
    core::DrlConfig config;
    config.epochs = quick ? 5 : 20;
    core::DrlEngine engine(config);
    std::vector<storage::DeviceId> devices = {0, 1, 2, 3, 4, 5};
    core::RetrainStats stats =
        engine.retrain(daemon.buildTrainingBatch(devices));
    result.trained = stats.trained && !stats.diverged && engine.ready();
    if (!result.trained)
        return result;

    // One "latest record" per simulated file, as a decision cycle sees.
    std::vector<core::PerfRecord> files(records.end() - 24,
                                        records.end());
    result.files = files.size();
    result.devices = devices.size();

    // Interleaved best-of (see timeGemm for why).
    std::vector<double> scalar;
    std::vector<std::vector<core::CandidateScore>> batched;
    result.scalarMs = 1e300;
    result.batchedMs = 1e300;
    for (int rep = 0; rep < (quick ? 3 : 5); ++rep) {
        result.scalarMs = std::min(
            result.scalarMs,
            bestMillis(
                [&]() {
                    scalar.clear();
                    for (const core::PerfRecord &rec : files)
                        for (storage::DeviceId device : devices)
                            scalar.push_back(
                                engine.scoreLocations({rec}, {device})[0][0]
                                    .predictedThroughput);
                },
                1));
        result.batchedMs = std::min(
            result.batchedMs,
            bestMillis(
                [&]() { batched = engine.scoreLocations(files, devices); },
                1));
    }

    size_t flat = 0;
    for (const auto &per_file : batched)
        for (const core::CandidateScore &score : per_file)
            result.bitwiseEqual =
                result.bitwiseEqual &&
                score.predictedThroughput == scalar[flat++];
    return result;
}

struct CycleResult
{
    double cycleMs = 0.0;
    double predictMs = 0.0;
    bool acted = false;
};

CycleResult
timeFullCycle(bool quick)
{
    auto system = storage::makeBlueskySystem(7);
    workload::Belle2Workload workload(*system);
    core::GeomancyConfig config;
    config.drl.epochs = quick ? 5 : 20;
    config.explorationRate = 0.0; // force the scoring path
    core::Geomancy geomancy(*system, workload.files(), config);
    for (size_t run = 0; run < (quick ? 6u : 20u); ++run)
        workload.executeRun();

    CycleResult result;
    auto t0 = std::chrono::steady_clock::now();
    core::CycleReport report = geomancy.runCycle();
    auto t1 = std::chrono::steady_clock::now();
    result.cycleMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    result.predictMs = geomancy.engine().lastPredictionMillis();
    result.acted = report.acted;
    return result;
}

struct ScalingResult
{
    size_t workers = 0;
    double seconds = 0.0;
};

std::vector<ScalingResult>
timeModelSearchScaling(bool quick)
{
    std::vector<core::PerfRecord> records = syntheticRecords(2000);
    const size_t epochs = quick ? 5 : 20;
    std::vector<ScalingResult> results;
    for (size_t workers : {1u, 2u, 4u}) {
        util::ThreadPool pool(workers);
        auto t0 = std::chrono::steady_clock::now();
        bench::scoreModelAveraged(1, records, epochs, 424, 4, &pool);
        auto t1 = std::chrono::steady_clock::now();
        results.push_back(
            {workers, std::chrono::duration<double>(t1 - t0).count()});
    }
    return results;
}

struct OverheadResult
{
    double counterNs = 0.0;
    double histogramNs = 0.0;
    double plainLoopNs = 0.0;
};

/**
 * Tracked ns/op of the metric primitives against an arithmetic-only
 * loop of the same trip count, so regressions in the relaxed-atomic
 * paths show up in BENCH_perf.json diffs.
 */
OverheadResult
timeMetricsOverhead(bool quick)
{
    const size_t iters = quick ? 2000000 : 8000000;
    const int reps = quick ? 3 : 5;
    util::MetricRegistry registry;
    util::Counter &counter = registry.counter("bench.events");
    util::Histogram &histogram = registry.histogram("bench.latency");

    OverheadResult result;
    uint64_t sink = 0;
    result.plainLoopNs = bestMillis(
                             [&]() {
                                 for (size_t i = 0; i < iters; ++i)
                                     sink += i * 31 + 7;
                             },
                             reps) *
                         1e6 / static_cast<double>(iters);
    benchmark::DoNotOptimize(sink);
    result.counterNs = bestMillis(
                           [&]() {
                               for (size_t i = 0; i < iters; ++i)
                                   counter.inc();
                           },
                           reps) *
                       1e6 / static_cast<double>(iters);
    result.histogramNs =
        bestMillis(
            [&]() {
                for (size_t i = 0; i < iters; ++i)
                    histogram.record(static_cast<double>(i & 1023) + 1.0);
            },
            reps) *
        1e6 / static_cast<double>(iters);
    benchmark::DoNotOptimize(counter.value());
    return result;
}

struct LedgerOverheadResult
{
    double withMs = 0.0;    ///< best-of mean cycle ms, ledger attached
    double withoutMs = 0.0; ///< best-of mean cycle ms, no ledger
    double overheadFrac = 0.0;
    uint64_t rows = 0; ///< ledger rows the instrumented run produced
};

/** Process CPU milliseconds; immune to scheduler and I/O-wait noise. */
double
cpuMillis()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

/**
 * End-to-end decision-cycle cost with and without the audit ledger
 * attached: two same-seed pipelines do identical decision work (the
 * ledger is recording-only), so the delta is pure ledger overhead —
 * row serialization plus the per-cycle atomic flush. Measured in
 * process CPU time with interleaved best-of repetitions, since the
 * overhead budget (overhead_frac < 0.02) is far below wall-clock
 * jitter on a shared machine.
 */
LedgerOverheadResult
timeLedgerOverhead(bool quick)
{
    const size_t cycles = quick ? 4 : 8;
    const int reps = quick ? 4 : 5;
    const std::string path = "perf-ledger-overhead.ndjson";

    LedgerOverheadResult result;
    auto timeOne = [&](bool with_ledger) {
        auto system = storage::makeBlueskySystem(7);
        workload::Belle2Workload workload(*system);
        core::GeomancyConfig config;
        config.drl.epochs = quick ? 5 : 20;
        config.explorationRate = 0.0;
        core::Geomancy geomancy(*system, workload.files(), config);
        if (with_ledger)
            geomancy.attachLedger(path);
        double total = 0.0;
        for (size_t c = 0; c < cycles; ++c) {
            for (size_t run = 0; run < 3; ++run)
                workload.executeRun();
            double t0 = cpuMillis();
            geomancy.runCycle();
            total += cpuMillis() - t0;
        }
        if (with_ledger)
            result.rows = geomancy.ledger()->rowsWritten();
        return total / static_cast<double>(cycles);
    };

    timeOne(false); // warmup: page in code paths and the allocator
    double best_with = 0.0, best_without = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
        // Alternate which pipeline runs first: in-process drift
        // (allocator growth, cache state) slows whichever run comes
        // second, and a fixed order would bias the comparison.
        bool ledger_first = (rep % 2) != 0;
        double first_ms = timeOne(ledger_first);
        double second_ms = timeOne(!ledger_first);
        double with_ms = ledger_first ? first_ms : second_ms;
        double without_ms = ledger_first ? second_ms : first_ms;
        if (rep == 0 || without_ms < best_without)
            best_without = without_ms;
        if (rep == 0 || with_ms < best_with)
            best_with = with_ms;
    }
    std::remove(path.c_str());
    result.withMs = best_with;
    result.withoutMs = best_without;
    result.overheadFrac =
        best_without > 0.0 ? (best_with - best_without) / best_without
                           : 0.0;
    return result;
}

/** Run the tracked perf suite and write BENCH_perf.json. */
void
runPerfSuite()
{
    const bool quick = std::getenv("GEO_PERF_QUICK") != nullptr;
    const char *out_env = std::getenv("GEO_PERF_OUT");
    const std::string out_path =
        out_env != nullptr ? out_env : "BENCH_perf.json";

    std::vector<GemmResult> gemm;
    const int reps = quick ? 3 : 5;
    if (quick) {
        gemm.push_back(timeGemm(32, 32, 32, reps));
        gemm.push_back(timeGemm(64, 64, 64, reps));
        gemm.push_back(timeGemm(128, 128, 128, reps));
    } else {
        gemm.push_back(timeGemm(64, 64, 64, reps));
        gemm.push_back(timeGemm(128, 128, 128, reps));
        gemm.push_back(timeGemm(256, 256, 256, reps));
        gemm.push_back(timeGemm(512, 64, 512, reps));
    }
    std::fprintf(stderr, "perf: gemm done\n");
    TrainTimings train = timeTrain(quick);
    std::fprintf(stderr, "perf: train done\n");
    ScoringResult scoring = timeCandidateScoring(quick);
    std::fprintf(stderr, "perf: candidate scoring done\n");
    CycleResult cycle = timeFullCycle(quick);
    std::fprintf(stderr, "perf: full cycle done\n");
    std::vector<ScalingResult> scaling = timeModelSearchScaling(quick);
    std::fprintf(stderr, "perf: model-search scaling done\n");
    OverheadResult overhead = timeMetricsOverhead(quick);
    std::fprintf(stderr, "perf: metrics overhead done\n");
    LedgerOverheadResult ledger = timeLedgerOverhead(quick);
    std::fprintf(stderr, "perf: ledger overhead done\n");

    std::ofstream out(out_path);
    if (!out)
        panic("runPerfSuite: cannot write %s", out_path.c_str());
    out << "{\n";
    out << "  \"schema\": \"geo-perf-2\",\n";
    out << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    out << "  \"threads\": " << util::ThreadPool::global().workerCount()
        << ",\n";
    // Scaling numbers are meaningless on a single hardware thread;
    // perf_diff.py uses this to skip model_search_scaling deltas there.
    out << "  \"hw_concurrency\": " << std::thread::hardware_concurrency()
        << ",\n";
    out << "  \"gemm\": [\n";
    for (size_t i = 0; i < gemm.size(); ++i) {
        const GemmResult &g = gemm[i];
        out << "    {\"m\": " << g.m << ", \"k\": " << g.k
            << ", \"n\": " << g.n << ", \"naive_ms\": " << g.naiveMs
            << ", \"fast_ms\": " << g.fastMs << ", \"speedup\": "
            << (g.fastMs > 0.0 ? g.naiveMs / g.fastMs : 0.0) << "}"
            << (i + 1 < gemm.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"train\": {\"epoch_ms\": " << train.epochMs
        << ", \"retrain_ms\": " << train.retrainMs
        << ", \"retrain_epochs\": " << train.retrainEpochs
        << ", \"steady_state_allocs\": " << train.steadyAllocs << "},\n";
    out << "  \"candidate_scoring\": {\"files\": " << scoring.files
        << ", \"devices\": " << scoring.devices
        << ", \"trained\": " << (scoring.trained ? "true" : "false")
        << ", \"scalar_ms\": " << scoring.scalarMs
        << ", \"batched_ms\": " << scoring.batchedMs << ", \"speedup\": "
        << (scoring.batchedMs > 0.0 ? scoring.scalarMs / scoring.batchedMs
                                    : 0.0)
        << ", \"bitwise_equal\": "
        << (scoring.bitwiseEqual ? "true" : "false") << "},\n";
    out << "  \"full_cycle\": {\"cycle_ms\": " << cycle.cycleMs
        << ", \"predict_ms\": " << cycle.predictMs << "},\n";
    out << "  \"model_search_scaling\": [\n";
    for (size_t i = 0; i < scaling.size(); ++i) {
        const ScalingResult &s = scaling[i];
        out << "    {\"workers\": " << s.workers << ", \"seconds\": "
            << s.seconds << ", \"speedup\": "
            << (s.seconds > 0.0 ? scaling[0].seconds / s.seconds : 0.0)
            << "}" << (i + 1 < scaling.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"metrics_overhead\": {\"counter_ns\": " << overhead.counterNs
        << ", \"histogram_ns\": " << overhead.histogramNs
        << ", \"plain_loop_ns\": " << overhead.plainLoopNs << "},\n";
    out << "  \"ledger_overhead\": {\"with_ms\": " << ledger.withMs
        << ", \"without_ms\": " << ledger.withoutMs
        << ", \"overhead_frac\": " << ledger.overheadFrac
        << ", \"rows\": " << ledger.rows << "}\n";
    out << "}\n";
    std::fprintf(stderr, "perf: wrote %s\n", out_path.c_str());
}

} // namespace
} // namespace geo

int
main(int argc, char **argv)
{
    if (std::getenv("GEO_SKIP_PERF") == nullptr)
        geo::runPerfSuite();
    if (std::getenv("GEO_SKIP_MICRO") != nullptr)
        return 0;
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
