/**
 * @file
 * Seeded mutation fuzzing of the text loaders: util::parseJson over
 * the lines of the golden decision ledger, and trace::recordsFromCsv
 * over a generated EOS trace. About a thousand mutants each (see
 * fuzz.hh); every parse must fail or succeed cleanly, and the
 * unmutated input must parse whole.
 */

#include <gtest/gtest.h>

#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include "trace/access_record.hh"
#include "trace/eos_trace_gen.hh"
#include "util/fs_atomic.hh"
#include "util/json.hh"

#include "fuzz.hh"

namespace geo {
namespace {

using fuzz::kMutants;
using fuzz::Mutator;
using fuzz::QuietLog;

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    return lines;
}

TEST(LoaderFuzz, ParseJsonSurvivesMutatedLedgerLines)
{
    std::string golden;
    ASSERT_TRUE(util::readFileAll(GEO_TEST_DATA_DIR "/golden_ledger.ndjson",
                                  golden));
    const std::vector<std::string> lines = splitLines(golden);
    ASSERT_GT(lines.size(), 1u);
    for (const std::string &line : lines) {
        util::JsonValue value;
        ASSERT_TRUE(util::parseJson(line, value)) << line;
        EXPECT_FALSE(value.str("t").empty()) << line;
    }

    Mutator mutator(golden, 0x150);
    size_t rejected = 0;
    for (size_t i = 0; i < kMutants; ++i) {
        for (const std::string &line : splitLines(mutator.next())) {
            util::JsonValue value;
            try {
                rejected += util::parseJson(line, value) ? 0 : 1;
            } catch (const std::exception &e) {
                ADD_FAILURE() << "mutant " << i << " threw: " << e.what();
            }
        }
    }
    EXPECT_GT(rejected, kMutants / 2);
}

TEST(LoaderFuzz, RecordsFromCsvSurvivesMutatedTraces)
{
    trace::EosTraceConfig config;
    config.fileCount = 50;
    const std::vector<trace::AccessRecord> records =
        trace::EosTraceGenerator(config).generate(200);
    const std::string csv = trace::recordsToCsv(records);
    const std::vector<trace::AccessRecord> whole = trace::recordsFromCsv(csv);
    ASSERT_EQ(whole.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(whole[i].fid, records[i].fid) << "record " << i;
        EXPECT_EQ(whole[i].path, records[i].path) << "record " << i;
        EXPECT_EQ(whole[i].csize, records[i].csize) << "record " << i;
    }

    QuietLog quiet;
    Mutator mutator(csv, 0xC5F);
    size_t damaged = 0;
    for (size_t i = 0; i < kMutants; ++i) {
        std::vector<trace::AccessRecord> parsed;
        try {
            parsed = trace::recordsFromCsv(mutator.next());
        } catch (const std::exception &e) {
            ADD_FAILURE() << "mutant " << i << " threw: " << e.what();
            continue;
        }
        // Each of at most three mutations duplicates at most one row.
        EXPECT_LE(parsed.size(), records.size() + 3) << "mutant " << i;
        damaged += parsed.size() != records.size() ? 1 : 0;
    }
    EXPECT_GT(damaged, kMutants / 4);
}

} // namespace
} // namespace geo
