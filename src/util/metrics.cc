#include "util/metrics.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"

namespace geo {
namespace util {

namespace {

/** Relaxed-CAS add for atomic<double> (no fetch_add before C++20 on
 *  all targets; this compiles everywhere we build). */
void
atomicAdd(std::atomic<double> &target, double delta)
{
    double expected = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(expected, expected + delta,
                                         std::memory_order_relaxed))
        ;
}

void
atomicMin(std::atomic<double> &target, double value)
{
    double expected = target.load(std::memory_order_relaxed);
    while (value < expected &&
           !target.compare_exchange_weak(expected, value,
                                         std::memory_order_relaxed))
        ;
}

void
atomicMax(std::atomic<double> &target, double value)
{
    double expected = target.load(std::memory_order_relaxed);
    while (value > expected &&
           !target.compare_exchange_weak(expected, value,
                                         std::memory_order_relaxed))
        ;
}

/** Print a double so it JSON-round-trips (shortest exact form). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::string out = strprintf("%.17g", v);
    // Try shorter representations that still parse back exactly.
    for (int precision = 1; precision < 17; ++precision) {
        std::string candidate = strprintf("%.*g", precision, v);
        if (std::stod(candidate) == v)
            return candidate;
    }
    return out;
}

/** Prometheus metric name: dots/dashes to underscores, geo_ prefix. */
std::string
promName(const std::string &name)
{
    std::string out = "geo_";
    for (char c : name)
        out.push_back((c == '.' || c == '-') ? '_' : c);
    return out;
}

} // namespace

size_t
Histogram::bucketIndex(double value)
{
    if (!(value > 0.0) || !std::isfinite(value))
        return 0; // zero, negatives, NaN -> underflow bucket
    int exp = static_cast<int>(std::floor(std::log2(value)));
    if (exp < kMinExp)
        return 0;
    if (exp >= kMaxExp)
        return kBucketCount - 1;
    return static_cast<size_t>(exp - kMinExp) + 1;
}

double
Histogram::bucketLowerBound(size_t index)
{
    if (index == 0)
        return 0.0;
    return std::ldexp(1.0, kMinExp + static_cast<int>(index) - 1);
}

double
Histogram::bucketUpperBound(size_t index)
{
    if (index >= kBucketCount - 1)
        return std::numeric_limits<double>::infinity();
    return std::ldexp(1.0, kMinExp + static_cast<int>(index));
}

void
Histogram::record(double value)
{
    buckets_[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    uint64_t before = count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, value);
    if (before == 0) {
        // First observation seeds min/max; racing recorders converge
        // via the CAS loops below.
        min_.store(value, std::memory_order_relaxed);
        max_.store(value, std::memory_order_relaxed);
    }
    atomicMin(min_, value);
    atomicMax(max_, value);
}

double
Histogram::quantile(double q) const
{
    uint64_t counts[kBucketCount];
    uint64_t total = 0;
    for (size_t i = 0; i < kBucketCount; ++i) {
        counts[i] = buckets_[i].load(std::memory_order_relaxed);
        total += counts[i];
    }
    if (total == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double target = q * static_cast<double>(total);
    double lo = min_.load(std::memory_order_relaxed);
    double hi = max_.load(std::memory_order_relaxed);

    double cumulative = 0.0;
    for (size_t i = 0; i < kBucketCount; ++i) {
        if (counts[i] == 0)
            continue;
        double next = cumulative + static_cast<double>(counts[i]);
        if (next >= target) {
            double bucket_lo = std::max(bucketLowerBound(i), lo);
            double bucket_hi = std::min(bucketUpperBound(i), hi);
            if (!(bucket_hi > bucket_lo))
                return std::clamp(bucket_lo, lo, hi);
            double within =
                (target - cumulative) / static_cast<double>(counts[i]);
            return std::clamp(
                bucket_lo + within * (bucket_hi - bucket_lo), lo, hi);
        }
        cumulative = next;
    }
    return hi;
}

HistogramSnapshot
Histogram::snapshot() const
{
    HistogramSnapshot snap;
    snap.count = count_.load(std::memory_order_relaxed);
    snap.sum = sum_.load(std::memory_order_relaxed);
    if (snap.count > 0) {
        snap.min = min_.load(std::memory_order_relaxed);
        snap.max = max_.load(std::memory_order_relaxed);
        snap.p50 = quantile(0.50);
        snap.p95 = quantile(0.95);
        snap.p99 = quantile(0.99);
    }
    return snap;
}

void
Histogram::reset()
{
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
}

std::string
MetricRegistry::scoped(const std::string &name) const
{
    if (scopes_.empty())
        return name;
    std::string out;
    for (const std::string &prefix : scopes_)
        out += prefix;
    out += name;
    return out;
}

void
MetricRegistry::pushScope(const std::string &prefix)
{
    std::lock_guard<std::mutex> lock(mutex_);
    scopes_.push_back(prefix);
}

void
MetricRegistry::popScope()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (scopes_.empty())
        panic("MetricRegistry::popScope: no scope active");
    scopes_.pop_back();
}

bool
MetricRegistry::splitShardScope(const std::string &name,
                                std::string &base, std::string &shard)
{
    static const std::string kPrefix = "shard";
    if (name.compare(0, kPrefix.size(), kPrefix) != 0)
        return false;
    size_t i = kPrefix.size();
    size_t digits_begin = i;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9')
        ++i;
    if (i == digits_begin || i >= name.size() || name[i] != '.')
        return false;
    shard = name.substr(digits_begin, i - digits_begin);
    base = name.substr(i + 1);
    return !base.empty();
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[scoped(name)];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[scoped(name)];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[scoped(name)];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

void
MetricRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, counter] : counters_)
        counter->reset();
    for (auto &[name, gauge] : gauges_)
        gauge->reset();
    for (auto &[name, histogram] : histograms_)
        histogram->reset();
}

uint64_t
MetricRegistry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second->value();
}

std::vector<std::pair<std::string, uint64_t>>
MetricRegistry::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &[name, counter] : counters_)
        out.emplace_back(name, counter->value());
    return out;
}

std::vector<std::pair<std::string, double>>
MetricRegistry::gauges() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, double>> out;
    out.reserve(gauges_.size());
    for (const auto &[name, gauge] : gauges_)
        out.emplace_back(name, gauge->value());
    return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>>
MetricRegistry::histograms() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, HistogramSnapshot>> out;
    out.reserve(histograms_.size());
    for (const auto &[name, histogram] : histograms_)
        out.emplace_back(name, histogram->snapshot());
    return out;
}

std::string
MetricRegistry::toJson() const
{
    std::vector<std::pair<std::string, uint64_t>> counter_rows =
        counters();
    std::vector<std::pair<std::string, double>> gauge_rows = gauges();
    std::vector<std::pair<std::string, HistogramSnapshot>> histo_rows =
        histograms();

    std::ostringstream out;
    out << "{\n  \"schema\": \"geo-metrics-1\",\n";
    out << "  \"counters\": {";
    for (size_t i = 0; i < counter_rows.size(); ++i) {
        out << (i ? ",\n    " : "\n    ") << '"'
            << jsonEscape(counter_rows[i].first)
            << "\": " << counter_rows[i].second;
    }
    out << (counter_rows.empty() ? "},\n" : "\n  },\n");
    out << "  \"gauges\": {";
    for (size_t i = 0; i < gauge_rows.size(); ++i) {
        out << (i ? ",\n    " : "\n    ") << '"'
            << jsonEscape(gauge_rows[i].first)
            << "\": " << jsonNumber(gauge_rows[i].second);
    }
    out << (gauge_rows.empty() ? "},\n" : "\n  },\n");
    out << "  \"histograms\": {";
    for (size_t i = 0; i < histo_rows.size(); ++i) {
        const HistogramSnapshot &h = histo_rows[i].second;
        out << (i ? ",\n    " : "\n    ") << '"'
            << jsonEscape(histo_rows[i].first) << "\": {\"count\": "
            << h.count << ", \"sum\": " << jsonNumber(h.sum)
            << ", \"min\": " << jsonNumber(h.min)
            << ", \"max\": " << jsonNumber(h.max)
            << ", \"p50\": " << jsonNumber(h.p50)
            << ", \"p95\": " << jsonNumber(h.p95)
            << ", \"p99\": " << jsonNumber(h.p99) << "}";
    }
    out << (histo_rows.empty() ? "}\n" : "\n  }\n");
    out << "}\n";
    return out.str();
}

void
MetricRegistry::setHelp(const std::string &name, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    help_[name] = help;
}

std::string
MetricRegistry::helpFor(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = help_.find(name);
    if (it != help_.end())
        return it->second;
    return "geomancy metric " + name;
}

std::string
MetricRegistry::promEscapeHelp(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out.push_back(c);
    }
    return out;
}

std::string
MetricRegistry::promEscapeLabel(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out.push_back(c);
    }
    return out;
}

namespace {

/** One exported sample: the shard label ("" = unsharded) + value. */
template <typename V>
struct PromSample
{
    std::string shard;
    V value;
};

/** Group rows by base name so shard-scoped variants of one metric
 *  share a single HELP/TYPE header and differ only in the `shard`
 *  label (the exposition format forbids repeated headers). std::map
 *  keeps bases sorted; per-base samples keep registry (sorted) order,
 *  which sorts numerically for single-digit shard counts. */
template <typename V>
std::map<std::string, std::vector<PromSample<V>>>
groupByBase(const std::vector<std::pair<std::string, V>> &rows)
{
    std::map<std::string, std::vector<PromSample<V>>> grouped;
    for (const auto &[name, value] : rows) {
        std::string base, shard;
        if (!MetricRegistry::splitShardScope(name, base, shard)) {
            base = name;
            shard.clear();
        }
        grouped[base].push_back({shard, value});
    }
    return grouped;
}

/** `{shard="N"}` (or "" for unsharded), with extra labels appended. */
std::string
promLabels(const std::string &shard, const std::string &extra = {})
{
    std::string labels;
    if (!shard.empty())
        labels = "shard=\"" + MetricRegistry::promEscapeLabel(shard) +
                 "\"";
    if (!extra.empty())
        labels += (labels.empty() ? "" : ",") + extra;
    if (labels.empty())
        return "";
    return "{" + labels + "}";
}

} // namespace

std::string
MetricRegistry::toPrometheus() const
{
    // HELP before TYPE before samples, per the exposition format.
    std::ostringstream out;
    auto header = [&](const std::string &name, const std::string &prom,
                      const char *type) {
        out << "# HELP " << prom << " "
            << promEscapeHelp(helpFor(name)) << "\n"
            << "# TYPE " << prom << " " << type << "\n";
    };
    for (const auto &[base, samples] : groupByBase(counters())) {
        std::string prom = promName(base);
        header(base, prom, "counter");
        for (const auto &s : samples)
            out << prom << promLabels(s.shard) << " " << s.value << "\n";
    }
    for (const auto &[base, samples] : groupByBase(gauges())) {
        std::string prom = promName(base);
        header(base, prom, "gauge");
        for (const auto &s : samples)
            out << prom << promLabels(s.shard) << " "
                << jsonNumber(s.value) << "\n";
    }
    for (const auto &[base, samples] : groupByBase(histograms())) {
        std::string prom = promName(base);
        header(base, prom, "summary");
        for (const auto &s : samples) {
            auto quantile = [&](const char *q, double value) {
                out << prom
                    << promLabels(s.shard, "quantile=\"" +
                                               promEscapeLabel(q) + "\"")
                    << " " << jsonNumber(value) << "\n";
            };
            quantile("0.5", s.value.p50);
            quantile("0.95", s.value.p95);
            quantile("0.99", s.value.p99);
            out << prom << "_sum" << promLabels(s.shard) << " "
                << jsonNumber(s.value.sum) << "\n";
            out << prom << "_count" << promLabels(s.shard) << " "
                << s.value.count << "\n";
        }
    }
    return out.str();
}

bool
MetricRegistry::writeJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toJson();
    return static_cast<bool>(out);
}

MetricRegistry &
MetricRegistry::global()
{
    static MetricRegistry registry;
    return registry;
}

} // namespace util
} // namespace geo
