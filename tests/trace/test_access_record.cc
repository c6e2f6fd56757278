/**
 * @file
 * Unit tests for the EOS-style access record.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "trace/access_record.hh"
#include "util/csv.hh"

namespace geo {
namespace trace {
namespace {

AccessRecord
sampleRecord()
{
    AccessRecord rec;
    rec.fid = 42;
    rec.fsid = 3;
    rec.path = "eos/pool0/run001/data00042.root";
    rec.rb = 1000000;
    rec.wb = 0;
    rec.ots = 100;
    rec.otms = 250;
    rec.cts = 101;
    rec.ctms = 250;
    rec.rt = 900.0;
    rec.nrc = 2;
    rec.secgrps = 1;
    rec.secrole = 2;
    rec.secapp = 5;
    rec.td = 0;
    rec.osize = 2000000;
    rec.csize = 2000000;
    return rec;
}

TEST(AccessRecord, ThroughputPaperFormula)
{
    AccessRecord rec = sampleRecord();
    // (rb + wb) / ((cts + ctms/1000) - (ots + otms/1000)) = 1e6 / 1.0
    EXPECT_DOUBLE_EQ(rec.throughput(), 1000000.0);
}

TEST(AccessRecord, ThroughputWithMillisParts)
{
    AccessRecord rec = sampleRecord();
    rec.ctms = 750; // duration 1.5 s
    EXPECT_NEAR(rec.throughput(), 1000000.0 / 1.5, 1e-6);
}

TEST(AccessRecord, ThroughputCountsReadsAndWrites)
{
    AccessRecord rec = sampleRecord();
    rec.wb = 500000;
    EXPECT_DOUBLE_EQ(rec.throughput(), 1500000.0);
}

TEST(AccessRecord, ZeroDurationYieldsZero)
{
    AccessRecord rec = sampleRecord();
    rec.cts = rec.ots;
    rec.ctms = rec.otms;
    EXPECT_DOUBLE_EQ(rec.throughput(), 0.0);
}

TEST(AccessRecord, NegativeDurationYieldsZero)
{
    AccessRecord rec = sampleRecord();
    rec.cts = rec.ots - 10;
    EXPECT_DOUBLE_EQ(rec.throughput(), 0.0);
}

TEST(AccessRecord, TimesAndDuration)
{
    AccessRecord rec = sampleRecord();
    EXPECT_DOUBLE_EQ(rec.openTime(), 100.25);
    EXPECT_DOUBLE_EQ(rec.closeTime(), 101.25);
    EXPECT_DOUBLE_EQ(rec.duration(), 1.0);
}

TEST(AccessRecord, FeatureNamesNonEmptyAndUnique)
{
    std::vector<std::string> names = accessFeatureNames();
    EXPECT_GE(names.size(), 18u);
    std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), names.size());
}

TEST(AccessRecord, FeatureExtraction)
{
    AccessRecord rec = sampleRecord();
    EXPECT_DOUBLE_EQ(accessFeature(rec, "fid"), 42.0);
    EXPECT_DOUBLE_EQ(accessFeature(rec, "fsid"), 3.0);
    EXPECT_DOUBLE_EQ(accessFeature(rec, "rb"), 1000000.0);
    EXPECT_DOUBLE_EQ(accessFeature(rec, "rt"), 900.0);
    EXPECT_DOUBLE_EQ(accessFeature(rec, "secapp"), 5.0);
}

TEST(AccessRecord, EveryNamedFeatureExtractable)
{
    AccessRecord rec = sampleRecord();
    for (const std::string &name : accessFeatureNames())
        EXPECT_NO_FATAL_FAILURE(accessFeature(rec, name)) << name;
}

TEST(AccessRecordDeathTest, UnknownFeature)
{
    AccessRecord rec = sampleRecord();
    EXPECT_DEATH(accessFeature(rec, "bogus"), "unknown feature");
}

TEST(AccessRecord, CsvRoundTrip)
{
    std::vector<AccessRecord> records = {sampleRecord()};
    records.push_back(sampleRecord());
    records[1].fid = 7;
    records[1].path = "a/b/c.root";
    records[1].wb = 123;
    // A path may hold anything a file name can; the CSV quotes it.
    records.push_back(sampleRecord());
    records[2].fid = 9;
    records[2].path = "a/line\nbreak,\"quoted\"\r\n.root";

    std::string csv = recordsToCsv(records);
    std::vector<AccessRecord> parsed = recordsFromCsv(csv);
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_EQ(parsed[0].fid, 42u);
    EXPECT_EQ(parsed[0].path, records[0].path);
    EXPECT_EQ(parsed[1].fid, 7u);
    EXPECT_EQ(parsed[1].wb, 123u);
    EXPECT_EQ(parsed[2].fid, 9u);
    EXPECT_EQ(parsed[2].path, records[2].path);
    EXPECT_DOUBLE_EQ(parsed[0].throughput(), records[0].throughput());
}

TEST(AccessRecord, CsvEmptyInput)
{
    EXPECT_TRUE(recordsFromCsv("").empty());
}

TEST(AccessRecord, CsvSkipsMalformedRows)
{
    std::string csv = recordsToCsv({sampleRecord()});
    std::ostringstream bad;
    bad << "1,2,broken\n";
    // Right column count, but a field no number parser may accept: the
    // row is skipped with a warning instead of aborting the process.
    CsvWriter writer(bad);
    for (const auto &[column, value] :
         std::vector<std::pair<size_t, std::string>>{
             {0, "abc"}, {1, "-3"}, {5, "12x"}, {9, ""},
             {11, "4294967296"}, {17, "99999999999999999999"}}) {
        std::vector<std::string> fields = parseCsv(csv)[1];
        fields[column] = value;
        writer.writeRow(fields);
    }
    std::vector<AccessRecord> parsed = recordsFromCsv(csv + bad.str());
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].fid, sampleRecord().fid);
}

} // namespace
} // namespace trace
} // namespace geo
