#include "util/csv.hh"

#include <sstream>

namespace geo {

CsvWriter::CsvWriter(std::ostream &os) : os_(os) {}

void
CsvWriter::writeRow(const std::vector<std::string> &fields)
{
    for (size_t i = 0; i < fields.size(); ++i) {
        if (i)
            os_ << ',';
        os_ << csvEscape(fields[i]);
    }
    os_ << '\n';
}

std::string
csvEscape(const std::string &field)
{
    bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quotes)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::vector<std::string>
parseCsvLine(const std::string &line)
{
    std::vector<std::string> fields;
    std::string current;
    bool in_quotes = false;
    for (size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    current += '"';
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                current += c;
            }
        } else if (c == '"') {
            in_quotes = true;
        } else if (c == ',') {
            fields.push_back(std::move(current));
            current.clear();
        } else if (c == '\r') {
            // Ignore carriage returns from CRLF input.
        } else {
            current += c;
        }
    }
    fields.push_back(std::move(current));
    return fields;
}

std::vector<std::vector<std::string>>
parseCsv(const std::string &text)
{
    std::vector<std::vector<std::string>> rows;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        rows.push_back(parseCsvLine(line));
    }
    return rows;
}

} // namespace geo
