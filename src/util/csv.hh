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

/**
 * Parse a whole CSV document into rows of fields. Quoting follows
 * RFC 4180, so a quoted field may hold commas, doubled quotes and line
 * breaks; outside quotes a `\r` is dropped (CRLF input) and a blank
 * line is no row.
 */
std::vector<std::vector<std::string>> parseCsv(const std::string &text);

/** Escape a single field per RFC 4180 (quote only when needed). */
std::string csvEscape(const std::string &field);

} // namespace geo

#endif // GEO_UTIL_CSV_HH
