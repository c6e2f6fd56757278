/**
 * @file
 * The benchmark's own tests: the percentile rule, metric naming, the
 * ledger-line parser, command-line validation, and a reduced-scale
 * smoke run of every workload (untraced and traced) that must print
 * every metric BENCHMARK.json names, with its unit, and pass the
 * correctness gate.
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "cli.hh"
#include "report.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i)
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond)
{
    double out = -1.0;
    EXPECT_EQ(samplesBeyond(40, 0.75), 10u);
    EXPECT_EQ(samplesBeyond(39, 0.75), 9u);
    EXPECT_FALSE(percentile(oneTo(39), 0.75, out));
    EXPECT_EQ(out, -1.0);
    EXPECT_FALSE(percentile(oneTo(19), 0.5, out));
    EXPECT_FALSE(percentile({}, 0.5, out));
    EXPECT_TRUE(percentile(oneTo(20), 0.5, out));
    EXPECT_DOUBLE_EQ(out, 10.5);
    EXPECT_TRUE(percentile(oneTo(40), 0.75, out));
    EXPECT_DOUBLE_EQ(out, 30.25); // 1 + 0.75 * 39, interpolated
    EXPECT_FALSE(percentile(oneTo(1000), 0.995, out)); // 5 beyond
    EXPECT_TRUE(percentile(oneTo(1000), 0.99, out));
}

TEST(Percentile, MedianOfAnyCount)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3.0}), 3.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(MetricName, Charset)
{
    for (const char *ok : {"decision_ms_p50", "nn.dense0.fwd_us", "a-b",
                           "0x", "setup_s"})
        EXPECT_TRUE(validMetricName(ok)) << ok;
    for (const char *bad : {"", "_x", ".x", "x y", "x/y", "x\"", "p%",
                            "caf\xc3\xa9"})
        EXPECT_FALSE(validMetricName(bad)) << bad;
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    for (const char *ok : {"ms", "1/s", "%", "GB/s", "MiB", "count"})
        EXPECT_TRUE(validUnit(ok)) << ok;
    for (const char *bad : {"", "m s", "bytes per second", "\"ms\""})
        EXPECT_FALSE(validUnit(bad)) << bad;
}

TEST(MetricName, ReportRejectsBadMetrics)
{
    Report r;
    EXPECT_TRUE(r.add("a.b", 1.5, "ms", 3));
    EXPECT_FALSE(r.add("a.b", 2.0, "ms"));
    EXPECT_FALSE(r.add("bad name", 1.0, "ms"));
    EXPECT_FALSE(r.add("c", 1.0, "m s"));
    EXPECT_FALSE(r.add("d", std::nan(""), "ms"));
    EXPECT_EQ(r.metrics().size(), 1u);
    EXPECT_EQ(r.errors().size(), 4u);
    EXPECT_EQ(r.json(true, 4, 0),
              "{\"correct\": true, \"attempted\": 4, \"failed\": 0, "
              "\"metrics\": {\"a.b\": {\"value\": 1.5, \"unit\": "
              "\"ms\"}}}");
    EXPECT_EQ(r.text(), "metric a.b = 1.5 ms (n=3)\n");
}

TEST(LedgerLine, JsonSyntax)
{
    for (const char *ok :
         {"{}", "{\"t\":\"ledger\",\"schema\":\"geo-ledger-1\"}",
          " {\"a\": [1, -2.5e-3, true, false, null, {\"b\": \"\\u00e9\"}]} ",
          "{\"s\":\"q\\\"\\\\\\/\\b\\f\\n\\r\\t\"}"})
        EXPECT_TRUE(jsonObjectValid(ok)) << ok;
    for (const char *bad :
         {"", "[]", "{", "{\"a\":}", "{\"a\":1,}", "{\"a\":01}",
          "{\"a\":1} x", "{a:1}", "{\"a\":\"\\x\"}", "{\"a\":\"\\u12\"}",
          "{\"a\":1.}", "{\"a\":tru}", "{\"a\":\"unterminated}"})
        EXPECT_FALSE(jsonObjectValid(bad)) << bad;
    EXPECT_FALSE(jsonObjectValid(std::string(100, '{') +
                                 std::string(100, '}')));
}

bool
parse(std::vector<const char *> args, Options &out, std::string &error)
{
    args.insert(args.begin(), "perfbench_driver");
    return parseOptions(static_cast<int>(args.size()), args.data(), out,
                        error);
}

TEST(Cli, ValidatesEveryValue)
{
    Options o;
    std::string error;
    ASSERT_TRUE(parse({"--workload", "fleet_durable", "--seed", "42",
                       "--seconds", "2.5", "--trace", "1", "--scale",
                       "0.5"},
                      o, error))
        << error;
    EXPECT_EQ(o.workload, Workload::FleetDurable);
    EXPECT_EQ(o.seed, 42u);
    EXPECT_EQ(o.seconds, 2.5);
    EXPECT_TRUE(o.trace);
    EXPECT_EQ(o.scale, 0.5);

    std::vector<std::vector<const char *>> bad = {
        {},
        {"--workload", "nope"},
        {"--workload", "cycle_steady", "--seed", "abc"},
        {"--workload", "cycle_steady", "--seed", "-1"},
        {"--workload", "cycle_steady", "--seed", "99999999999999999999"},
        {"--workload", "cycle_steady", "--seed", "4294967296"},
        {"--workload", "cycle_steady", "--seconds", "0"},
        {"--workload", "cycle_steady", "--seconds", "nan"},
        {"--workload", "cycle_steady", "--seconds", "10s"},
        {"--workload", "cycle_steady", "--trace", "2"},
        {"--workload", "cycle_steady", "--scale", "5"},
        {"--workload", "cycle_steady", "--scale", "0"},
        {"--workload", "cycle_steady", "--bogus", "1"},
        {"--workload"},
    };
    for (const auto &args : bad) {
        Options fresh;
        error.clear();
        EXPECT_FALSE(parse(args, fresh, error));
        EXPECT_FALSE(error.empty());
    }
}

// --- Smoke run -------------------------------------------------------------

/** (name, unit) of every metric in one BENCHMARK.json section. */
std::map<std::string, std::string>
specMetrics(const std::string &spec, const std::string &section)
{
    std::map<std::string, std::string> out;
    size_t at = spec.find("\"" + section + "\"");
    if (at == std::string::npos)
        return out;
    size_t open = spec.find('[', at), close = spec.find(']', at);
    std::string body = spec.substr(open, close - open);
    std::regex entry("\\{[^}]*\\}");
    std::regex name("\"name\"\\s*:\\s*\"([^\"]+)\"");
    std::regex unit("\"unit\"\\s*:\\s*\"([^\"]+)\"");
    for (std::sregex_iterator it(body.begin(), body.end(), entry), end;
         it != end; ++it) {
        std::string obj = it->str();
        std::smatch n, u;
        if (std::regex_search(obj, n, name) &&
            std::regex_search(obj, u, unit))
            out[n[1]] = u[1];
    }
    return out;
}

struct Output
{
    int status = -1;
    std::vector<std::string> lines;
};

Output
runDriver(const std::string &args)
{
    Output out;
    const char *driver = std::getenv("PERFBENCH_DRIVER");
    if (!driver)
        return out;
    std::string cmd = std::string(driver) + " " + args + " 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return out;
    std::array<char, 4096> buf;
    std::string text;
    size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        text.append(buf.data(), n);
    int status = pclose(pipe);
    out.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        out.lines.push_back(line);
    return out;
}

std::string
lineStartingWith(const Output &out, const std::string &prefix)
{
    for (const std::string &line : out.lines)
        if (line.rfind(prefix, 0) == 0)
            return line;
    return "";
}

TEST(Smoke, EveryWorkloadPrintsEveryMetric)
{
    const char *specPath = std::getenv("PERFBENCH_SPEC");
    ASSERT_NE(specPath, nullptr);
    ASSERT_NE(std::getenv("PERFBENCH_DRIVER"), nullptr);
    std::ifstream is(specPath);
    std::stringstream spec;
    spec << is.rdbuf();
    auto endToEnd = specMetrics(spec.str(), "end_to_end");
    auto perLayer = specMetrics(spec.str(), "per_layer");
    ASSERT_FALSE(endToEnd.empty());
    ASSERT_FALSE(perLayer.empty());

    for (const char *workload :
         {"cycle_steady", "ingest_static", "fleet_durable"}) {
        std::string digest;
        for (int trace = 0; trace <= 1; ++trace) {
            SCOPED_TRACE(std::string(workload) + " trace " +
                         std::to_string(trace));
            Output out = runDriver(
                std::string("--workload ") + workload +
                " --seed 3 --seconds 1 --scale 0.2 --work-dir smoke-work"
                " --trace " + std::to_string(trace));
            ASSERT_EQ(out.status, 0);
            ASSERT_FALSE(out.lines.empty());
            const std::string &result = out.lines.back();
            EXPECT_TRUE(jsonObjectValid(result)) << result;
            EXPECT_EQ(result.rfind("{\"correct\": true,", 0), 0u) << result;
            const auto &wanted = trace ? perLayer : endToEnd;
            size_t printed = 0;
            for (const std::string &line : out.lines)
                printed += line.rfind("metric ", 0) == 0;
            EXPECT_EQ(printed, wanted.size());
            for (const auto &[name, unit] : wanted) {
                EXPECT_NE(result.find("\"" + name +
                                      "\": {\"value\": "),
                          std::string::npos)
                    << name;
                EXPECT_NE(result.find("\"unit\": \"" + unit + "\""),
                          std::string::npos)
                    << name << " " << unit;
                std::string line = lineStartingWith(out, "metric " + name +
                                                             " = ");
                EXPECT_NE(line.find(" " + unit + " (n="),
                          std::string::npos)
                    << line;
            }
            // Shadow work in the traced run must not change the
            // decision trajectory.
            std::string d = lineStartingWith(out, "digest ");
            EXPECT_FALSE(d.empty());
            if (trace == 0)
                digest = d;
            else
                EXPECT_EQ(d, digest);
        }
    }
}

TEST(Smoke, BadArgumentsExitWithUsage)
{
    ASSERT_NE(std::getenv("PERFBENCH_DRIVER"), nullptr);
    for (const char *args :
         {"--workload cycle_steady --seed x", "--workload nope",
          "--workload cycle_steady --seconds 0"}) {
        Output out = runDriver(args);
        EXPECT_EQ(out.status, 2) << args;
        EXPECT_TRUE(out.lines.empty()) << args;
    }
}

} // namespace
} // namespace perfbench
