#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "core/policies.hh"
#include "core/shard_coordinator.hh"
#include "nn/model_zoo.hh"
#include "nn/serialize.hh"
#include "storage/bluesky.hh"
#include "storage/fault_injector.hh"
#include "speed.hh"
#include "trace.hh"
#include "util/crc32.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/random.hh"
#include "util/state_io.hh"
#include "util/thread_pool.hh"
#include "workload/belle2.hh"

namespace perfbench {
namespace {

using namespace geo;
namespace fs = std::filesystem;

/** Set-ups per run at least (setup_s is their median). */
constexpr size_t kMinSetups = 3;
/** Restores of a final snapshot per run (restore_ms is the median),
 *  spread over the episodes a few at a time. */
constexpr size_t kRestoreReps = 9;
constexpr size_t kRestoresPerEpisode = 3;
/** Decisions a run needs so that p75 has kMinTailSamples beyond it. */
constexpr size_t kMinDecisions = 4 * kMinTailSamples;
/** fleet_durable's cross-shard admission budgets (both enforced). */
constexpr size_t kFleetMovesPerDevice = 4;
constexpr uint64_t kFleetBytesPerDevice = 4ULL << 30;
/** Registry prefix of every shadow object, so the program's own
 *  counters only count the program's own work. */
const char *const kShadowScope = "perfbench.shadow.";

// --- Workload shapes --------------------------------------------------

/** The fixed shape of one workload's episode. */
struct Spec
{
    size_t tenants = 1;
    size_t warmupRuns = 0;
    size_t measuredRuns = 0;
    size_t cadence = 5; ///< measured runs between decisions
    size_t epochs = 20;
    bool sharded = false;
    bool durable = false; ///< faults, file-backed state, commit every run
    bool dynamic = true;  ///< false: Geomancy static + dry-run decisions
};

/**
 * The warmup of every workload fills each mount's training window
 * (DaemonConfig::windowPerDevice rows per device, per shard when
 * sharded) before the first decision, as the paper collects ~10,000
 * accesses before acting: every measured retrain then sees a full
 * window, whatever the seed, and the decisions are steady-state ones.
 */
Spec
specFor(const Options &options)
{
    Spec s;
    double base = 0.0;
    switch (options.workload) {
      case Workload::CycleSteady:
        // The paper's Experiment 1: one BELLE II suite, Geomancy dynamic
        // with model 1 and 20 epochs, a decision every 5 runs; 205 runs
        // hold 40 measured decisions. 40 warmup runs put ~2400 accesses
        // on each mount (4 files x ~15 accesses per run).
        s.warmupRuns = 40;
        base = 205;
        break;
      case Workload::IngestStatic:
        // Four tenants under Geomancy static: one retrain in set-up,
        // then only monitoring and ReplayDB ingest.
        s.tenants = 4;
        s.warmupRuns = 10;
        s.dynamic = false;
        base = 400;
        break;
      case Workload::FleetDurable:
        // Four tenant shards, a coordinator round and a checkpoint
        // after every run; 61 runs hold 60 measured rounds. Each shard
        // window is 2000/4 rows per mount, full after ~9 runs.
        s.tenants = 4;
        s.warmupRuns = 12;
        s.cadence = 1;
        s.epochs = 5;
        s.sharded = true;
        s.durable = true;
        base = 61;
        break;
    }
    s.measuredRuns = std::max<size_t>(
        s.cadence + 1, static_cast<size_t>(std::llround(base * options.scale)));
    return s;
}

/** Decisions in one episode: every cadence point but the last run. */
size_t
decisionsPerEpisode(const Spec &s)
{
    return (s.measuredRuns - 1) / s.cadence;
}

/**
 * The seed makes the workload: the BELLE II access streams and the
 * runner's placement RNG. The testbed stays fixed across seeds, as
 * hardware would: the Bluesky mounts' background traffic and the
 * fault schedule of the degraded mount.
 */
struct Seeds
{
    uint64_t workload = 0;   ///< BELLE II access streams
    uint64_t experiment = 0; ///< runner RNG (static placements)
    uint64_t traffic = 7;    ///< Bluesky background traffic (testbed)
    uint64_t faults = 7 * 1000003 + 13; ///< fault-injector stream (testbed)
};

Seeds
seedsFor(uint64_t seed)
{
    Seeds seeds;
    seeds.workload = 1234 + seed * 7919;
    seeds.experiment = seed * 31 + 1;
    return seeds;
}

core::ExperimentConfig
experimentConfig(const Spec &spec, const Seeds &seeds)
{
    core::ExperimentConfig config;
    config.warmupRuns = spec.warmupRuns;
    config.measuredRuns = spec.measuredRuns;
    config.cadence = spec.cadence;
    config.seed = seeds.experiment;
    return config;
}

std::unique_ptr<workload::Belle2Workload>
makeWorkload(storage::StorageSystem &system, const Spec &spec,
             const Seeds &seeds)
{
    workload::Belle2Config config;
    config.tenantCount = spec.tenants;
    config.seed = seeds.workload;
    return std::make_unique<workload::Belle2Workload>(system, config);
}

/** fig7's degraded "var" mount, live from t=0, with transient errors. */
std::unique_ptr<storage::FaultInjector>
makeFaults(storage::StorageSystem &system, const Seeds &seeds)
{
    storage::FaultInjectorConfig config;
    config.seed = seeds.faults;
    auto injector = std::make_unique<storage::FaultInjector>(system, config);
    system.attachFaultInjector(injector.get());
    storage::FaultEvent degrade;
    degrade.device = system.deviceByName("var");
    degrade.kind = storage::FaultKind::Degradation;
    degrade.magnitude = 0.45;
    injector->addEvent(degrade);
    storage::FaultEvent errors = degrade;
    errors.kind = storage::FaultKind::TransientErrors;
    errors.magnitude = 0.35;
    injector->addEvent(errors);
    return injector;
}

// --- The pipeline under test --------------------------------------------

/** Forwards to the real policy and times every rebalance() call. */
class TimedPolicy : public core::PlacementPolicy
{
  public:
    TimedPolicy(core::PlacementPolicy &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    std::string name() const override { return inner_.name(); }
    bool isDynamic() const override { return inner_.isDynamic(); }

    size_t
    rebalance(core::PolicyContext &context) override
    {
        auto span = tracer_.span("policy.rebalance");
        Clock::time_point start = Clock::now();
        size_t moved = inner_.rebalance(context);
        lastMs_ = msSince(start);
        ++calls_;
        return moved;
    }

    double lastMs() const { return lastMs_; }
    uint64_t calls() const { return calls_; }

  private:
    core::PlacementPolicy &inner_;
    Tracer &tracer_;
    double lastMs_ = 0.0;
    uint64_t calls_ = 0;
};

/** One episode's objects, wired as geomancy_sim wires a deployment. */
class Pipeline
{
  public:
    Pipeline(const Spec &spec, const Seeds &seeds, const std::string &dir,
             Tracer &tracer)
        : spec_(spec), tracer_(tracer)
    {
        system = storage::makeBlueskySystem(seeds.traffic);
        workload = makeWorkload(*system, spec, seeds);
        if (spec.durable)
            injector = makeFaults(*system, seeds);

        core::GeomancyConfig config;
        config.drl.epochs = spec.epochs;
        if (spec.sharded) {
            // fig7's resilient pipeline per shard: scheduler with the
            // breaker, gap check off so evacuations are not starved.
            config.useScheduler = true;
            config.scheduler.checkGaps = false;
            config.scheduler.fileCooldownSeconds = 30.0;
            core::ShardCoordinatorConfig coord;
            coord.base = config;
            coord.maxMovesPerDevicePerRound = kFleetMovesPerDevice;
            coord.maxBytesInFlightPerDevice = kFleetBytesPerDevice;
            std::vector<std::vector<storage::FileId>> tenants;
            for (size_t t = 0; t < spec.tenants; ++t)
                tenants.push_back(workload->tenantFiles(t));
            coordinator = std::make_unique<core::ShardCoordinator>(
                *system, tenants, coord,
                spec.durable ? dir + "/replay.db" : ":memory:");
            coordinator->attachLedgers(dir + "/ledger.ndjson");
            for (size_t i = 0; i < coordinator->shardCount(); ++i)
                units.push_back(&coordinator->shard(i));
            auto sharded =
                std::make_unique<core::ShardedGeomancyPolicy>(*coordinator);
            shardedPolicy_ = sharded.get();
            inner_ = std::move(sharded);
        } else {
            geomancy = std::make_unique<core::Geomancy>(
                *system, workload->files(), config);
            units.push_back(geomancy.get());
            if (spec.dynamic) {
                auto dynamic =
                    std::make_unique<core::GeomancyDynamicPolicy>(*geomancy);
                dynamicPolicy_ = dynamic.get();
                inner_ = std::move(dynamic);
            } else {
                inner_ =
                    std::make_unique<core::GeomancyStaticPolicy>(*geomancy);
            }
        }
        policy = std::make_unique<TimedPolicy>(*inner_, tracer_);
        core::CheckpointManagerConfig mconfig;
        mconfig.dir = dir + "/ckpt";
        checkpoints = std::make_unique<core::CheckpointManager>(mconfig);
        runner = std::make_unique<core::ExperimentRunner>(
            *system, *workload, *policy, experimentConfig(spec, seeds));
        if (spec.durable)
            runner->setCheckpointHook([this](size_t done) { commit(done); });
    }

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /** Warmup runs plus the initial placement. */
    void
    setUp()
    {
        for (size_t i = 0; i <= spec_.warmupRuns; ++i)
            runner->step();
    }

    /** One consistent cut, in geomancy_sim's snapshot order. */
    std::string
    snapshot()
    {
        std::ostringstream os;
        util::StateWriter w(os);
        if (coordinator)
            coordinator->saveState(w);
        else
            geomancy->saveState(w);
        if (injector)
            injector->saveState(w);
        workload->saveState(w);
        runner->saveState(w);
        return os.str();
    }

    /** Load a cut written by snapshot() and reconcile pending retries. */
    bool
    restore(const std::string &payload)
    {
        std::istringstream is(payload);
        util::StateReader r(is);
        if (coordinator)
            coordinator->loadState(r);
        else
            geomancy->loadState(r);
        if (injector)
            injector->loadState(r);
        workload->loadState(r);
        runner->loadState(r);
        if (!r.ok())
            return false;
        for (core::Geomancy *unit : units)
            unit->controlAgent().restorePending();
        return true;
    }

    /** Durable commit: serialize the cut and write the checkpoint. */
    void
    commit(uint64_t cycle)
    {
        Clock::time_point start = Clock::now();
        std::string payload;
        {
            auto span = tracer_.span("checkpoint.serialize");
            payload = snapshot();
        }
        serializeMs = msSince(start);
        Clock::time_point written = Clock::now();
        {
            auto span = tracer_.span("checkpoint.write");
            if (!checkpoints->write(cycle, payload))
                commitFailed = true;
        }
        writeMs = msSince(written);
        commitMs = msSince(start);
        snapshotBytes = payload.size();
    }

    /** The real policy's reports of its last decision, by unit. */
    std::vector<core::CycleReport>
    lastReports() const
    {
        if (shardedPolicy_)
            return shardedPolicy_->lastReports();
        if (dynamicPolicy_)
            return {dynamicPolicy_->lastReport()};
        return {};
    }

    // Declaration order is destruction order in reverse: the runner
    // goes first, the system it drives last.
    std::unique_ptr<storage::StorageSystem> system;
    std::unique_ptr<workload::Belle2Workload> workload;
    std::unique_ptr<storage::FaultInjector> injector;
    std::unique_ptr<core::Geomancy> geomancy;
    std::unique_ptr<core::ShardCoordinator> coordinator;
    std::unique_ptr<TimedPolicy> policy;
    std::unique_ptr<core::CheckpointManager> checkpoints;
    std::unique_ptr<core::ExperimentRunner> runner;
    std::vector<core::Geomancy *> units; ///< the monolith or each shard

    /** Timings of the last commit(); commitMs is reset by the caller. */
    double commitMs = 0.0;
    double serializeMs = 0.0;
    double writeMs = 0.0;
    size_t snapshotBytes = 0;
    bool commitFailed = false;

  private:
    const Spec &spec_;
    Tracer &tracer_;
    std::unique_ptr<core::PlacementPolicy> inner_;
    core::GeomancyDynamicPolicy *dynamicPolicy_ = nullptr;
    core::ShardedGeomancyPolicy *shardedPolicy_ = nullptr;
};

// --- Helpers --------------------------------------------------------------

/** Every counter of the registry, shard-scoped names summed by base. */
std::map<std::string, uint64_t>
countersByBase()
{
    std::map<std::string, uint64_t> out;
    for (const auto &[name, value] :
         util::MetricRegistry::global().counters()) {
        std::string base, shard;
        if (!util::MetricRegistry::splitShardScope(name, base, shard))
            base = name;
        out[base] += value;
    }
    return out;
}

std::string
hex32(uint32_t value)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", value);
    return buf;
}

/** Peak resident set of this process, MiB (VmHWM). */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** A snapshot without the ReplayDB watermark lines (`geo.db_*`). */
std::string
withoutWatermarks(const std::string &payload)
{
    std::istringstream is(payload);
    std::string line, out;
    while (std::getline(is, line)) {
        if (line.rfind("geo.db_", 0) != 0)
            out += line + "\n";
    }
    return out;
}

/** Recent-sample window a unit's sanity check queries: the shard
 *  coordinator scales the template's window by 1/N (floor 256). */
size_t
sanityWindow(const Spec &spec)
{
    size_t window = core::GeomancyConfig{}.sanityWindow;
    if (spec.sharded && spec.tenants > 1)
        window = std::max<size_t>(256, window / spec.tenants);
    return window;
}

/** Per-layer samples, by metric name. */
using Samples = std::map<std::string, std::vector<double>>;

/**
 * Time a shadow model of `config`'s architecture on `batch`: per-layer
 * forward/backward at the training batch size, one optimizer step, one
 * training epoch, validation evaluate and the text weight snapshot.
 */
void
timeShadowModel(const core::DrlConfig &config,
                const core::TrainingBatch &batch, Tracer &tracer,
                Samples &samples)
{
    auto span = tracer.span("nn.shadow");
    nn::DataSplit split = nn::chronologicalSplit(
        batch.dataset, config.trainFraction, config.valFraction);
    size_t rows = std::min(config.batchSize, split.train.size());
    if (rows == 0)
        return;
    Rng rng(config.seed);
    nn::Sequential model =
        nn::buildModel(config.modelNumber, config.featureCount, rng);
    nn::SgdOptimizer optimizer(config.learningRate, config.clipNorm);
    nn::Dataset mini = split.train.slice(0, rows);
    size_t layers = model.layerCount();
    std::vector<nn::Matrix> acts(layers), grads(layers);
    std::vector<std::vector<double>> fwd(layers), bwd(layers);
    std::vector<double> steps;
    std::vector<nn::Matrix *> params = model.parameters();
    std::vector<nn::Matrix *> paramGrads = model.gradients();
    nn::Matrix lossGrad(rows, 1);
    // Rep 0 sizes the buffers and is not recorded.
    for (size_t rep = 0; rep <= 16; ++rep) {
        const nn::Matrix *input = &mini.inputs;
        for (size_t i = 0; i < layers; ++i) {
            Clock::time_point start = Clock::now();
            model.layer(i).forwardInto(*input, true, acts[i]);
            if (rep)
                fwd[i].push_back(msSince(start) * 1e3);
            input = &acts[i];
        }
        for (size_t r = 0; r < rows; ++r)
            lossGrad.data()[r] = 2.0 *
                                 (acts.back().data()[r] -
                                  mini.targets.data()[r]) /
                                 static_cast<double>(rows);
        const nn::Matrix *grad = &lossGrad;
        for (size_t i = layers; i-- > 0;) {
            Clock::time_point start = Clock::now();
            model.layer(i).backwardInto(*grad, grads[i]);
            if (rep)
                bwd[i].push_back(msSince(start) * 1e3);
            grad = &grads[i];
        }
        Clock::time_point start = Clock::now();
        optimizer.step(params, paramGrads);
        if (rep)
            steps.push_back(msSince(start) * 1e3);
        model.zeroGrad();
    }
    for (size_t i = 0; i < layers; ++i) {
        std::string prefix =
            "nn." + model.layer(i).typeName() + std::to_string(i);
        samples[prefix + ".fwd_us"].push_back(median(fwd[i]));
        samples[prefix + ".bwd_us"].push_back(median(bwd[i]));
    }
    samples["nn.opt_step_us"].push_back(median(steps));

    nn::TrainOptions options;
    options.epochs = 1;
    options.batchSize = config.batchSize;
    Clock::time_point start = Clock::now();
    model.train(split.train, split.validation, optimizer, options);
    samples["nn.epoch_ms"].push_back(msSince(start));
    const nn::Dataset &probe =
        split.validation.empty() ? split.train : split.validation;
    start = Clock::now();
    model.evaluate(probe);
    samples["nn.evaluate_ms"].push_back(msSince(start));
    std::ostringstream os;
    start = Clock::now();
    nn::saveWeights(model, os);
    samples["nn.save_weights_ms"].push_back(msSince(start));
}

/** Accesses the workload generates for `seeds`: {warmup, measured}. */
std::pair<uint64_t, uint64_t>
expectedAccesses(const Spec &spec, const Seeds &seeds)
{
    auto system = storage::makeBlueskySystem(seeds.traffic);
    auto workload = makeWorkload(*system, spec, seeds);
    std::pair<uint64_t, uint64_t> counts{0, 0};
    for (size_t r = 0; r < spec.warmupRuns + spec.measuredRuns; ++r) {
        uint64_t n = workload->nextRun().size();
        (r < spec.warmupRuns ? counts.first : counts.second) += n;
    }
    return counts;
}

/** Median wall time of one measured run with no Geomancy attached. */
double
bareRunMs(const Spec &spec, const Seeds &seeds, Tracer &tracer)
{
    auto span = tracer.span("bare_runs");
    util::MetricScope scope(util::MetricRegistry::global(), kShadowScope);
    auto system = storage::makeBlueskySystem(seeds.traffic);
    auto workload = makeWorkload(*system, spec, seeds);
    std::unique_ptr<storage::FaultInjector> injector;
    if (spec.durable)
        injector = makeFaults(*system, seeds);
    core::NoOpPolicy policy;
    core::ExperimentRunner runner(*system, *workload, policy,
                                  experimentConfig(spec, seeds));
    for (size_t i = 0; i <= spec.warmupRuns; ++i)
        runner.step();
    std::vector<double> runs;
    while (!runner.finished()) {
        Clock::time_point start = Clock::now();
        runner.step();
        runs.push_back(msSince(start));
    }
    return median(runs);
}

// --- The run ------------------------------------------------------------

/** One benchmark run: set-ups, episodes, checks and metrics. */
class Bench
{
  public:
    Bench(const Options &options, RunResult &result)
        : options_(options), result_(result), spec_(specFor(options)),
          seeds_(seedsFor(options.seed)), tracer_(options.trace)
    {
        dir_ = (fs::path(options.workDir) /
                (std::string(workloadName(options.workload)) + "-" +
                 std::to_string(::getpid())))
                   .string();
    }

    ~Bench()
    {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    void run();

  private:
    void fail(const std::string &why) { result_.failures.push_back(why); }
    void resetDir();
    std::unique_ptr<Pipeline> setUp();
    void episode(bool traced);
    double dryRunDecision(Pipeline &p, bool traced, double &attributed);
    void shadowDecision(Pipeline &p, double decision_ms, double attributed,
                        const std::vector<core::CycleReport> &reports);
    void checkEpisodeEnd(Pipeline &p, const core::ExperimentResult &result,
                         const std::string &payload);
    void checkLedgers(Pipeline &p);
    void restoreChecks(const std::string &payload, size_t reps);
    void reportEndToEnd();
    void reportPerLayer();

    const Options &options_;
    RunResult &result_;
    Spec spec_;
    Seeds seeds_;
    Tracer tracer_;
    std::string dir_;
    std::pair<uint64_t, uint64_t> expected_{0, 0};
    std::string lastPayload_; ///< final snapshot of the last episode

    // End-to-end samples, pooled over episodes, scaled to reference
    // speed by the probes around them; raw* keep the wall times.
    SpeedProbe probe_;
    std::vector<double> setupS_, decisionMs_, restoreMs_, maePct_;
    std::vector<double> rawSetupS_, rawDecisionMs_, rawRestoreMs_;
    double ingestS_ = 0.0;    ///< measured run time minus decisions
    double rawIngestS_ = 0.0;
    double measuredS_ = 0.0;  ///< wall time of runs plus decisions
    uint64_t accesses_ = 0;
    double throughputGbps_ = 0.0;
    std::vector<std::string> setupDigests_, digests_;
    uint64_t decisionSeq_ = 0;

    // Per-layer samples and counts of the traced episode.
    Samples layer_;
    std::map<std::string, double> counts_;
    std::vector<std::unique_ptr<core::DrlEngine>> shadowEngines_;
    std::unique_ptr<core::ReplayDb> shadowDb_;
    double tracedRunMs_ = 0.0, tracedWallMs_ = 0.0;
    uint64_t movesRequested_ = 0, movesBad_ = 0;
};

void
Bench::resetDir()
{
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("perfbench: cannot create %s: %s", dir_.c_str(),
              ec.message().c_str());
}

std::unique_ptr<Pipeline>
Bench::setUp()
{
    resetDir();
    auto span = tracer_.span("setup");
    double before = probe_.measure();
    Clock::time_point start = Clock::now();
    auto p = std::make_unique<Pipeline>(spec_, seeds_, dir_, tracer_);
    p->setUp();
    double seconds = msSince(start) / 1e3;
    rawSetupS_.push_back(seconds);
    setupS_.push_back(seconds * SpeedProbe::factor(before, probe_.measure()));

    // Set-up digest: world state, engines and ingested rows. Read-only,
    // so the measured trajectory is not perturbed.
    std::ostringstream os;
    util::StateWriter w(os);
    p->system->saveState(w);
    for (core::Geomancy *unit : p->units) {
        unit->engine().saveState(w);
        w.i64("rows", unit->replayDb().accessCount());
    }
    setupDigests_.push_back(hex32(util::crc32(os.str())));
    return p;
}

double
Bench::dryRunDecision(Pipeline &p, bool traced, double &attributed)
{
    // Geomancy static never decides again after its placement; its
    // decision point re-scores the layout with the frozen model: the
    // latest access of every file, then one batched forward pass.
    core::Geomancy &unit = *p.geomancy;
    Clock::time_point start = Clock::now();
    std::vector<core::PerfRecord> latests;
    {
        auto span = tracer_.span("replaydb.latestAccessForFile");
        for (storage::FileId file : unit.managedFiles()) {
            core::PerfRecord rec;
            if (unit.replayDb().latestAccessForFile(file, rec))
                latests.push_back(std::move(rec));
        }
    }
    double latestMs = msSince(start);
    Clock::time_point scored = Clock::now();
    size_t rows = 0;
    if (unit.engine().ready() && !latests.empty()) {
        auto span = tracer_.span("drl.scoreLocations");
        rows = unit.engine()
                   .scoreLocations(latests, p.system->deviceIds())
                   .size() *
               p.system->deviceCount();
    }
    double scoreMs = msSince(scored);
    double total = msSince(start);
    attributed = latestMs + scoreMs;
    if (traced) {
        layer_["replaydb.latest_ms"].push_back(latestMs);
        layer_["drl.score_ms"].push_back(scoreMs);
        layer_["drl.score_rows"].push_back(static_cast<double>(rows));
    }
    return total;
}

void
Bench::shadowDecision(Pipeline &p, double decision_ms, double attributed,
                      const std::vector<core::CycleReport> &reports)
{
    auto span = tracer_.span("shadow");
    std::vector<storage::DeviceId> devices = p.system->deviceIds();
    double retrainMs = 0.0, retrainMax = 0.0;
    size_t retrains = 0;
    for (size_t i = 0; i < p.units.size(); ++i) {
        core::Geomancy &unit = *p.units[i];
        core::DrlEngine &shadow = *shadowEngines_[i];
        const core::CycleReport *rep =
            i < reports.size() ? &reports[i] : nullptr;
        bool built = rep && rep->retrain.samples > 0;
        bool trained = rep && rep->retrain.trained;
        bool proposed = trained && !rep->skipped && !rep->explored &&
                        !rep->probe;

        Clock::time_point start = Clock::now();
        core::TrainingBatch batch;
        {
            auto s = tracer_.span("daemon.buildTrainingBatch");
            batch = unit.daemon().buildTrainingBatch(devices);
        }
        double buildMs = msSince(start);
        layer_["daemon.batch_build_ms"].push_back(buildMs);
        if (built)
            attributed += buildMs;
        if (batch.dataset.size() < 16)
            continue;
        timeShadowModel(unit.engine().config(), batch, tracer_, layer_);

        // The shadow engine sees the batch the real one trained on, so
        // it follows the same trajectory; an untrained shadow (the
        // static workload's set-up retrain) catches up untimed.
        if (trained || !shadow.ready()) {
            Clock::time_point began = Clock::now();
            {
                auto s = tracer_.span("drl.retrain");
                shadow.retrain(batch);
            }
            double ms = msSince(began);
            if (trained) {
                nn::DataSplit split = nn::chronologicalSplit(
                    batch.dataset, shadow.config().trainFraction,
                    shadow.config().valFraction);
                double rowEpochs = static_cast<double>(
                    split.train.size() * shadow.config().epochs);
                layer_["drl.retrain_ms"].push_back(ms);
                layer_["drl.row_epochs"].push_back(rowEpochs);
                if (rowEpochs > 0)
                    layer_["drl.us_per_row_epoch"].push_back(ms * 1e3 /
                                                             rowEpochs);
                attributed += ms;
                retrainMs += ms;
                retrainMax = std::max(retrainMax, ms);
                ++retrains;
            }
        }

        if (!spec_.dynamic)
            continue; // the dry-run decision timed these itself
        std::vector<core::PerfRecord> latests;
        start = Clock::now();
        {
            auto s = tracer_.span("replaydb.latestAccessForFile");
            for (storage::FileId file : unit.managedFiles()) {
                core::PerfRecord rec;
                if (unit.replayDb().latestAccessForFile(file, rec))
                    latests.push_back(std::move(rec));
            }
        }
        double latestMs = msSince(start);
        start = Clock::now();
        {
            auto s = tracer_.span("replaydb.deviceThroughput");
            unit.replayDb().deviceThroughput(sanityWindow(spec_));
        }
        double deviceMs = msSince(start);
        double scoreMs = 0.0;
        if (shadow.ready() && !latests.empty()) {
            start = Clock::now();
            {
                auto s = tracer_.span("drl.scoreLocations");
                shadow.scoreLocations(latests, devices);
            }
            scoreMs = msSince(start);
            layer_["drl.score_ms"].push_back(scoreMs);
            layer_["drl.score_rows"].push_back(
                static_cast<double>(latests.size() * devices.size()));
        }
        layer_["replaydb.latest_ms"].push_back(latestMs);
        layer_["replaydb.device_tp_ms"].push_back(deviceMs);
        if (proposed)
            attributed += latestMs + deviceMs + scoreMs;
    }

    // One unit's 32-row monitoring batches into a shadow ReplayDB of
    // the same backing kind.
    core::Geomancy &first = *p.units.front();
    std::vector<core::PerfRecord> rows;
    for (storage::FileId file : first.managedFiles()) {
        core::PerfRecord rec;
        if (first.replayDb().latestAccessForFile(file, rec))
            rows.push_back(rec);
    }
    if (!rows.empty()) {
        std::vector<core::PerfRecord> batch;
        for (size_t i = 0; i < 32; ++i)
            batch.push_back(rows[i % rows.size()]);
        auto s = tracer_.span("replaydb.insertAccesses");
        for (int rep = 0; rep < 4; ++rep) {
            Clock::time_point start = Clock::now();
            shadowDb_->insertAccesses(batch);
            layer_["replaydb.insert_us_per_row"].push_back(
                msSince(start) * 1e3 / 32.0);
        }
    }

    if (spec_.sharded) {
        layer_["coord.round_ms"].push_back(p.policy->lastMs());
        if (retrains > 0) {
            layer_["coord.shard_retrain_max_ms"].push_back(retrainMax);
            layer_["coord.shard_retrain_sum_ms"].push_back(retrainMs);
        }
    }
    layer_["cycle.unattributed_ms"].push_back(decision_ms - attributed);
    layer_["cycle.unattributed_frac"].push_back(
        (decision_ms - attributed) / decision_ms);
    layer_["cycle.retrain_frac"].push_back(retrainMs / decision_ms);
}

void
Bench::episode(bool traced)
{
    std::unique_ptr<Pipeline> p = setUp();
    auto span = tracer_.span("episode.measured");
    std::map<std::string, uint64_t> before;
    if (traced) {
        before = countersByBase();
        util::MetricScope scope(util::MetricRegistry::global(), kShadowScope);
        for (core::Geomancy *unit : p->units)
            shadowEngines_.push_back(
                std::make_unique<core::DrlEngine>(unit->engine().config()));
        shadowDb_ = std::make_unique<core::ReplayDb>(
            spec_.durable ? dir_ + "/shadow.db" : ":memory:");
    }

    // Run time between two probes is scaled by both when the second
    // one is taken; a decision is closed by a probe right after it.
    double runMs = 0.0, rawRunMs = 0.0, wallMs = 0.0, pendingMs = 0.0;
    double opened = probe_.measure();
    auto closeInterval = [&](double extra_ms) {
        double before = opened;
        opened = probe_.measure();
        double factor = SpeedProbe::factor(before, opened);
        runMs += (pendingMs + extra_ms) * factor;
        pendingMs = 0.0;
        return factor;
    };
    while (!p->runner->finished()) {
        tracer_.setDecision(++decisionSeq_);
        uint64_t calls = p->policy->calls();
        p->commitMs = 0.0;
        if (probe_.age() > 20.0)
            closeInterval(0.0);
        Clock::time_point start = Clock::now();
        {
            auto s = tracer_.span("runner.step");
            p->runner->step();
        }
        double stepMs = msSince(start);
        bool decided = p->policy->calls() != calls;
        double decisionMs =
            (decided ? p->policy->lastMs() : 0.0) + p->commitMs;
        double stepRunMs = stepMs - decisionMs;
        rawRunMs += stepRunMs;
        wallMs += stepMs;
        if (traced)
            layer_["workload.run_ms"].push_back(stepRunMs);
        ++result_.attempted;

        double attributed = p->commitMs;
        size_t done = p->runner->measuredRunsDone();
        if (!spec_.dynamic && done % spec_.cadence == 0 &&
            done != spec_.measuredRuns) {
            double parts = 0.0;
            decisionMs = dryRunDecision(*p, traced, parts);
            attributed += parts;
            wallMs += decisionMs;
            decided = true;
        }
        if (!decided) {
            pendingMs += stepRunMs;
            continue;
        }
        double factor = closeInterval(stepRunMs);
        ++result_.attempted;
        rawDecisionMs_.push_back(decisionMs);
        decisionMs_.push_back(decisionMs * factor);
        std::vector<core::CycleReport> reports = p->lastReports();
        for (const core::CycleReport &rep : reports) {
            if (rep.retrain.diverged || rep.retrain.cancelled)
                ++result_.failed;
            movesRequested_ += rep.moves.requested;
            movesBad_ += rep.moves.failed + rep.moves.abandoned +
                         rep.moves.cancelled;
        }
        for (core::Geomancy *unit : p->units)
            if (unit->engine().ready())
                maePct_.push_back(unit->engine().maeFraction() * 100.0);
        if (spec_.sharded) {
            for (storage::DeviceId d = 0; d < p->system->deviceCount(); ++d) {
                const core::DeviceRoundUsage &use =
                    p->coordinator->roundUsage(d);
                if (use.moves > kFleetMovesPerDevice ||
                    use.bytes > kFleetBytesPerDevice)
                    fail("admission budget exceeded on device " +
                         std::to_string(d) + " in round " +
                         std::to_string(p->coordinator->roundsRun()));
            }
        }
        if (traced) {
            if (p->commitMs > 0.0) {
                layer_["checkpoint.serialize_ms"].push_back(p->serializeMs);
                layer_["checkpoint.write_ms"].push_back(p->writeMs);
            }
            layer_["trace.decision_ms_p50"].push_back(decisionMs * factor);
            shadowDecision(*p, decisionMs, attributed, reports);
        }
    }
    closeInterval(0.0);
    ingestS_ += runMs / 1e3;
    rawIngestS_ += rawRunMs / 1e3;
    measuredS_ += wallMs / 1e3;
    core::ExperimentResult result = p->runner->finish();
    accesses_ += result.totalAccesses;
    throughputGbps_ = result.averageThroughput / 1e9;

    // The final durable commit (done by the checkpoint hook when the
    // workload commits every run).
    if (!spec_.durable) {
        auto s = tracer_.span("checkpoint.final");
        p->commit(p->units.front()->cyclesRun());
        if (traced) {
            layer_["checkpoint.serialize_ms"].push_back(p->serializeMs);
            layer_["checkpoint.write_ms"].push_back(p->writeMs);
        }
    }
    if (p->commitFailed)
        fail("a checkpoint write failed");
    core::CheckpointHeader header;
    std::string payload;
    if (!p->checkpoints->loadLatest(header, payload)) {
        fail("no checkpoint validates after the episode");
        return;
    }
    checkEpisodeEnd(*p, result, payload);
    if (traced) {
        tracedRunMs_ = runMs;
        tracedWallMs_ = wallMs;
        std::map<std::string, uint64_t> after = countersByBase();
        for (const auto &[name, value] : after)
            counts_[name] = static_cast<double>(value - before[name]);
        uint64_t rows = 0, ledgerRows = 0;
        for (core::Geomancy *unit : p->units) {
            rows += static_cast<uint64_t>(unit->replayDb().accessCount());
            if (unit->ledger())
                ledgerRows += unit->ledger()->rowsWritten();
        }
        counts_["replaydb.rows"] = static_cast<double>(rows);
        counts_["ledger.rows"] = static_cast<double>(ledgerRows);
        counts_["checkpoint.bytes"] = static_cast<double>(p->snapshotBytes);
        if (p->coordinator)
            counts_["coord.moves_denied"] =
                static_cast<double>(p->coordinator->movesDenied());
        layer_["workload.bare_run_ms"].push_back(
            bareRunMs(spec_, seeds_, tracer_));
        shadowEngines_.clear();
        shadowDb_.reset();
    }
    p.reset(); // close every database before the restores reopen them
    restoreChecks(payload, kRestoresPerEpisode);
    lastPayload_ = std::move(payload);
}

void
Bench::checkEpisodeEnd(Pipeline &p, const core::ExperimentResult &result,
                       const std::string &payload)
{
    if (spec_.durable && p.snapshot() != payload)
        fail("the latest checkpoint differs from the live state");

    // Every generated access was executed, and every observation either
    // landed in a ReplayDB or was quarantined (snapshot() flushed the
    // agents).
    if (result.totalAccesses != expected_.second)
        fail("measured accesses " + std::to_string(result.totalAccesses) +
             " != " + std::to_string(expected_.second) +
             " generated for the seed");
    uint64_t ingested = 0;
    for (core::Geomancy *unit : p.units)
        ingested += static_cast<uint64_t>(unit->replayDb().accessCount()) +
                    unit->guardrails().quarantined();
    if (ingested != expected_.first + expected_.second)
        fail("ingested+quarantined " + std::to_string(ingested) + " != " +
             std::to_string(expected_.first + expected_.second) +
             " accesses");

    if (p.coordinator) {
        if (p.coordinator->peakDeviceMoves() > kFleetMovesPerDevice ||
            p.coordinator->peakDeviceBytes() > kFleetBytesPerDevice)
            fail("peak per-device admission exceeds the budgets");
        checkLedgers(p);
    }

    // Decision digest: final layout, bytes and files moved, accesses
    // and the final cut; repeats of a seed must agree.
    std::ostringstream os;
    for (const auto &[file, device] : p.system->layout())
        os << file << ':' << device << ' ';
    uint32_t layoutCrc = util::crc32(os.str());
    std::string digest = hex32(util::crc32(
        os.str() + std::to_string(result.bytesMoved) + "/" +
        std::to_string(result.filesMoved) + "/" +
        std::to_string(result.totalAccesses) + "/" + payload));
    if (digests_.empty()) {
        result_.info.push_back(
            "digest " + digest + " layout=" + hex32(layoutCrc) +
            " bytes_moved=" + std::to_string(result.bytesMoved) +
            " files_moved=" + std::to_string(result.filesMoved) +
            " accesses=" + std::to_string(result.totalAccesses) +
            " snapshot=" + hex32(util::crc32(payload)));
    }
    digests_.push_back(digest);
}

void
Bench::checkLedgers(Pipeline &p)
{
    uint64_t bytes = 0;
    for (size_t i = 0; i < p.units.size(); ++i) {
        const core::DecisionLedger *ledger = p.units[i]->ledger();
        if (!ledger) {
            fail("shard " + std::to_string(i) + " has no ledger");
            continue;
        }
        std::ifstream is(ledger->path());
        std::string line;
        uint64_t lines = 0;
        while (std::getline(is, line)) {
            ++lines;
            bytes += line.size() + 1;
            if (!jsonObjectValid(line)) {
                fail("ledger " + ledger->path() + " line " +
                     std::to_string(lines) + " does not parse");
                break;
            }
        }
        if (lines != ledger->rowsWritten() + 1)
            fail("ledger " + ledger->path() + " holds " +
                 std::to_string(lines) + " lines for " +
                 std::to_string(ledger->rowsWritten()) + " rows");
    }
    counts_["ledger.bytes"] = static_cast<double>(bytes);
}

void
Bench::restoreChecks(const std::string &payload, size_t reps)
{
    auto span = tracer_.span("restore");
    for (size_t rep = 0; rep < reps; ++rep) {
        Pipeline fresh(spec_, seeds_, dir_, tracer_);
        double before = probe_.measure();
        Clock::time_point start = Clock::now();
        core::CheckpointHeader header;
        std::string loaded;
        bool ok = fresh.checkpoints->loadLatest(header, loaded);
        double loadMs = msSince(start);
        ok = ok && fresh.restore(loaded);
        double ms = msSince(start);
        rawRestoreMs_.push_back(ms);
        restoreMs_.push_back(ms * SpeedProbe::factor(before, probe_.measure()));
        layer_["checkpoint.load_ms"].push_back(loadMs);
        if (!ok) {
            fail("the final checkpoint does not restore");
            return;
        }
        if (rep > 0)
            continue;
        // A durable pipeline re-serializes byte-identically; an
        // in-memory ReplayDB's rows do not survive a restart, so only
        // its watermark lines may differ.
        std::string again = fresh.snapshot();
        bool same = spec_.durable
                        ? again == payload
                        : withoutWatermarks(again) ==
                              withoutWatermarks(payload);
        if (!same)
            fail("the restored pipeline does not re-serialize "
                 "byte-identically");
    }
}

void
Bench::run()
{
    expected_ = expectedAccesses(spec_, seeds_);
    size_t perEpisode = decisionsPerEpisode(spec_);
    size_t minEpisodes = (kMinDecisions + perEpisode - 1) / perEpisode;
    if (!options_.trace) {
        for (size_t i = 0; i + 1 < kMinSetups; ++i)
            setUp();
    }
    size_t episodes = 0;
    while (episodes < minEpisodes ||
           (!options_.trace && measuredS_ < options_.seconds)) {
        episode(options_.trace && episodes == 0);
        ++episodes;
        if (!result_.correct())
            break;
    }
    // Top restore_ms up from the last episode's checkpoint, still on
    // disk.
    if (result_.correct() && restoreMs_.size() < kRestoreReps)
        restoreChecks(lastPayload_, kRestoreReps - restoreMs_.size());
    for (const std::string &d : setupDigests_)
        if (d != setupDigests_.front())
            fail("set-up digests differ across repeats of the seed");
    for (const std::string &d : digests_)
        if (d != digests_.front())
            fail("decision digests differ across repeats of the seed");

    char line[256];
    std::snprintf(line, sizeof line,
                  "config workload=%s seed=%llu scale=%g episodes=%zu "
                  "setups=%zu decisions=%zu measured_runs=%zu",
                  workloadName(options_.workload),
                  static_cast<unsigned long long>(options_.seed),
                  options_.scale, episodes, setupS_.size(),
                  decisionMs_.size(), episodes * spec_.measuredRuns);
    result_.info.push_back(line);
    std::snprintf(line, sizeof line,
                  "context nproc=%u pool_workers=%zu build_type=%s "
                  "driver_threads=1",
                  std::thread::hardware_concurrency(),
                  util::ThreadPool::global().workerCount(),
                  PERFBENCH_BUILD_TYPE);
    result_.info.push_back(line);

    if (options_.trace)
        reportPerLayer();
    else
        reportEndToEnd();
    for (const std::string &e : result_.report.errors())
        fail(e);
}

void
Bench::reportEndToEnd()
{
    double p50 = 0.0, p75 = 0.0;
    if (!percentile(decisionMs_, 0.5, p50) ||
        !percentile(decisionMs_, 0.75, p75))
        fail("too few decisions (" + std::to_string(decisionMs_.size()) +
             ") for a p75 with " + std::to_string(kMinTailSamples) +
             " samples beyond it");
    Report &r = result_.report;
    r.add("decision_ms_p50", p50, "ms", decisionMs_.size());
    r.add("decision_ms_p75", p75, "ms", decisionMs_.size());
    r.add("accesses_per_s",
          ingestS_ > 0 ? static_cast<double>(accesses_) / ingestS_ : 0.0,
          "1/s", accesses_);
    r.add("setup_s", median(setupS_), "s", setupS_.size());
    r.add("peak_rss_mb", peakRssMb(), "MiB");
    r.add("restore_ms", median(restoreMs_), "ms", restoreMs_.size());

    // The same metrics as wall times, how fast the machine ran, and the
    // seed's decision quality.
    double rawP50 = 0.0, rawP75 = 0.0;
    percentile(rawDecisionMs_, 0.5, rawP50);
    percentile(rawDecisionMs_, 0.75, rawP75);
    char line[320];
    std::snprintf(line, sizeof line,
                  "wall decision_ms_p50=%.6g decision_ms_p75=%.6g "
                  "accesses_per_s=%.6g setup_s=%.6g restore_ms=%.6g",
                  rawP50, rawP75,
                  rawIngestS_ > 0 ? static_cast<double>(accesses_) /
                                        rawIngestS_
                                  : 0.0,
                  median(rawSetupS_), median(rawRestoreMs_));
    result_.info.push_back(line);
    std::snprintf(line, sizeof line,
                  "speed probes=%zu kernel_ms median=%.4g reference=%.4g",
                  probe_.history().size(), median(probe_.history()),
                  kReferenceKernelMs);
    result_.info.push_back(line);
    std::snprintf(line, sizeof line, "quality avg_throughput_gbps=%.6g",
                  throughputGbps_);
    result_.info.push_back(line);
}

void
Bench::reportPerLayer()
{
    Report &r = result_.report;
    auto med = [this](const char *name) { return median(layer_[name]); };
    auto count = [this](const char *name) { return counts_[name]; };
    auto add = [&](const char *name, double value, const char *unit) {
        auto it = layer_.find(name);
        r.add(name, value, unit, it == layer_.end() ? 1 : it->second.size());
    };
    for (int i = 0; i < 4; ++i) {
        std::string prefix = "nn.dense" + std::to_string(i);
        add((prefix + ".fwd_us").c_str(), med((prefix + ".fwd_us").c_str()),
            "us");
        add((prefix + ".bwd_us").c_str(), med((prefix + ".bwd_us").c_str()),
            "us");
    }
    for (const char *name : {"nn.opt_step_us"})
        add(name, med(name), "us");
    for (const char *name :
         {"nn.epoch_ms", "nn.evaluate_ms", "nn.save_weights_ms",
          "drl.retrain_ms"})
        add(name, med(name), "ms");
    add("drl.row_epochs", med("drl.row_epochs"), "count");
    add("drl.us_per_row_epoch", med("drl.us_per_row_epoch"), "us");
    r.add("drl.val_mae_pct", median(maePct_), "%", maePct_.size());
    add("drl.score_ms", med("drl.score_ms"), "ms");
    add("drl.score_rows", med("drl.score_rows"), "count");
    add("daemon.batch_build_ms", med("daemon.batch_build_ms"), "ms");
    add("replaydb.latest_ms", med("replaydb.latest_ms"), "ms");
    add("replaydb.device_tp_ms", med("replaydb.device_tp_ms"), "ms");
    add("replaydb.insert_us_per_row", med("replaydb.insert_us_per_row"),
        "us");
    add("replaydb.rows", count("replaydb.rows"), "count");

    double runMs = med("workload.run_ms");
    double bareMs = med("workload.bare_run_ms");
    add("workload.run_ms", runMs, "ms");
    add("workload.bare_run_ms", bareMs, "ms");
    add("ingest.overhead_frac", bareMs > 0 ? (runMs - bareMs) / bareMs : 0.0,
        "ratio");
    add("workload.run_frac",
        tracedWallMs_ > 0 ? tracedRunMs_ / tracedWallMs_ : 0.0, "ratio");
    add("avg_throughput_gbps", throughputGbps_, "GB/s");
    add("monitor.records", count("monitor.records_observed"), "count");
    add("monitor.batches", count("monitor.batches_sent"), "count");
    add("guardrails.quarantined", count("guardrails.quarantined"), "count");

    for (const char *name :
         {"control.moves_requested", "control.moves_applied",
          "control.moves_failed", "control.retries"})
        add(name, count(name), "count");
    add("control.bytes_moved", count("control.bytes_moved"), "bytes");
    add("scheduler.rejected",
        count("scheduler.rejected_cooldown") +
            count("scheduler.rejected_gap") +
            count("scheduler.rejected_breaker"),
        "count");
    add("checker.vetoes",
        count("checker.veto_readonly") + count("checker.veto_capacity") +
            count("checker.veto_unhealthy") +
            count("geomancy.sanity_vetoes"),
        "count");
    add("move_fail_frac",
        movesRequested_ ? static_cast<double>(movesBad_) /
                              static_cast<double>(movesRequested_)
                        : 0.0,
        "ratio");

    add("ledger.rows", count("ledger.rows"), "count");
    add("ledger.bytes", count("ledger.bytes"), "bytes");
    add("checkpoint.serialize_ms", med("checkpoint.serialize_ms"), "ms");
    add("checkpoint.write_ms", med("checkpoint.write_ms"), "ms");
    add("checkpoint.bytes", count("checkpoint.bytes"), "bytes");
    add("checkpoint.load_ms", med("checkpoint.load_ms"), "ms");

    add("coord.round_ms", med("coord.round_ms"), "ms");
    add("coord.shard_retrain_max_ms", med("coord.shard_retrain_max_ms"),
        "ms");
    add("coord.shard_retrain_sum_ms", med("coord.shard_retrain_sum_ms"),
        "ms");
    add("coord.moves_denied", count("coord.moves_denied"), "count");

    add("pool.workers",
        static_cast<double>(util::ThreadPool::global().workerCount()),
        "count");
    add("pool.tasks", count("pool.tasks"), "count");

    add("cycle.unattributed_ms", med("cycle.unattributed_ms"), "ms");
    add("cycle.unattributed_frac", med("cycle.unattributed_frac"), "ratio");
    add("cycle.retrain_frac", med("cycle.retrain_frac"), "ratio");
    add("trace.decision_ms_p50", med("trace.decision_ms_p50"), "ms");
    add("trace.spans", static_cast<double>(tracer_.spanCount()), "count");

    if (!options_.spansOut.empty() &&
        !tracer_.writeChromeJson(options_.spansOut))
        fail("cannot write spans to " + options_.spansOut);
}

// --- Ledger line parser ----------------------------------------------------

/** Recursive-descent JSON syntax check (no values are kept). */
class JsonSyntax
{
  public:
    explicit JsonSyntax(const std::string &text) : s_(text) {}

    bool
    object()
    {
        space();
        if (peek() != '{' || !value())
            return false;
        space();
        return i_ == s_.size();
    }

  private:
    char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

    void
    space()
    {
        while (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
               peek() == '\r')
            ++i_;
    }

    bool
    literal(const char *word)
    {
        for (; *word; ++word, ++i_)
            if (peek() != *word)
                return false;
        return true;
    }

    bool
    digits()
    {
        size_t start = i_;
        while (peek() >= '0' && peek() <= '9')
            ++i_;
        return i_ > start;
    }

    bool
    number()
    {
        if (peek() == '-')
            ++i_;
        if (peek() == '0')
            ++i_;
        else if (!digits())
            return false;
        if (peek() == '.') {
            ++i_;
            if (!digits())
                return false;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++i_;
            if (peek() == '+' || peek() == '-')
                ++i_;
            if (!digits())
                return false;
        }
        return true;
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++i_;
        while (i_ < s_.size()) {
            char c = s_[i_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c != '\\')
                continue;
            char e = peek();
            ++i_;
            if (e == 'u') {
                for (int k = 0; k < 4; ++k, ++i_)
                    if (!std::isxdigit(static_cast<unsigned char>(peek())))
                        return false;
            } else if (e == '\0' ||
                       std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                return false;
            }
        }
        return false;
    }

    bool
    container(char open, char close, bool keyed)
    {
        if (peek() != open || ++depth_ > 64)
            return false;
        ++i_;
        space();
        if (peek() == close) {
            ++i_;
            --depth_;
            return true;
        }
        for (;;) {
            space();
            if (keyed) {
                if (!string())
                    return false;
                space();
                if (peek() != ':')
                    return false;
                ++i_;
            }
            if (!value())
                return false;
            space();
            if (peek() == ',') {
                ++i_;
                continue;
            }
            if (peek() != close)
                return false;
            ++i_;
            --depth_;
            return true;
        }
    }

    bool
    value()
    {
        space();
        switch (peek()) {
          case '{':
            return container('{', '}', true);
          case '[':
            return container('[', ']', false);
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    const std::string &s_;
    size_t i_ = 0;
    int depth_ = 0;
};

} // namespace

bool
jsonObjectValid(const std::string &line)
{
    return JsonSyntax(line).object();
}

RunResult
runBenchmark(const Options &options)
{
    setLogLevel(LogLevel::Quiet);
    RunResult result;
    Bench bench(options, result);
    bench.run();
    return result;
}

} // namespace perfbench
