#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

size_t
samplesBeyond(size_t n, double q)
{
    double at = std::ceil(static_cast<double>(n) * q);
    return at >= static_cast<double>(n) ? 0 : n - static_cast<size_t>(at);
}

bool
percentile(std::vector<double> samples, double q, double &out)
{
    if (!(q > 0.0 && q < 1.0) || samples.empty() ||
        samplesBeyond(samples.size(), q) < kMinTailSamples)
        return false;
    std::sort(samples.begin(), samples.end());
    double pos = q * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - static_cast<double>(lo);
    out = samples[lo] + frac * (samples[hi] - samples[lo]);
    return true;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

bool
alnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

} // namespace

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !alnum(name[0]))
        return false;
    for (char c : name)
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    for (char c : unit)
        if (!alnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
            c != '-')
            return false;
    return true;
}

bool
Report::add(const std::string &name, double value, const std::string &unit,
            size_t samples)
{
    std::string problem;
    if (!validMetricName(name))
        problem = "malformed metric name '" + name + "'";
    else if (!validUnit(unit))
        problem = "malformed unit '" + unit + "' of " + name;
    else if (!std::isfinite(value))
        problem = "non-finite value of " + name;
    for (const Metric &m : metrics_)
        if (m.name == name)
            problem = "duplicate metric " + name;
    if (!problem.empty()) {
        errors_.push_back(problem);
        return false;
    }
    metrics_.push_back({name, value, unit, samples});
    return true;
}

double
Report::value(const std::string &name, double fallback) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return m.value;
    return fallback;
}

std::string
formatNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.15g", value);
    return buf;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
Report::text() const
{
    std::string out;
    for (const Metric &m : metrics_) {
        out += "metric " + m.name + " = " + formatNumber(m.value) + " " +
               m.unit + " (n=" + std::to_string(m.samples) + ")\n";
    }
    return out;
}

std::string
Report::json(bool correct, uint64_t attempted, uint64_t failed) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        if (i)
            out += ", ";
        out += "\"" + jsonEscape(m.name) + "\": {\"value\": " +
               formatNumber(m.value) + ", \"unit\": \"" +
               jsonEscape(m.unit) + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
