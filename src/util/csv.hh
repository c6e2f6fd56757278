/**
 * @file
 * Minimal CSV reading/writing for traces and experiment series.
 *
 * Values containing commas, quotes or newlines are quoted per RFC 4180.
 */

#ifndef GEO_UTIL_CSV_HH
#define GEO_UTIL_CSV_HH

#include <ostream>
#include <string>
#include <vector>

namespace geo {

/** Stream-backed CSV writer. The stream must outlive the writer. */
class CsvWriter
{
  public:
    explicit CsvWriter(std::ostream &os);

    /** Write one row, quoting fields as needed. */
    void writeRow(const std::vector<std::string> &fields);

  private:
    std::ostream &os_;
};

/** Parse one CSV line into fields (handles RFC 4180 quoting). */
std::vector<std::string> parseCsvLine(const std::string &line);

/** Parse a whole CSV document (splits on '\n', ignores trailing blank). */
std::vector<std::vector<std::string>> parseCsv(const std::string &text);

/** Escape a single field per RFC 4180 (quote only when needed). */
std::string csvEscape(const std::string &field);

} // namespace geo

#endif // GEO_UTIL_CSV_HH
