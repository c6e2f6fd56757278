#include "util/csv.hh"

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

std::vector<std::vector<std::string>>
parseCsv(const std::string &text)
{
    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> row;
    std::string field;
    bool in_quotes = false;
    size_t line_start = 0;
    // The end of the text ends the last row as a line break would,
    // even inside an unterminated quote.
    for (size_t i = 0; i <= text.size(); ++i) {
        const bool at_end = i == text.size();
        const char c = at_end ? '\n' : text[i];
        if (in_quotes && !at_end) {
            if (c != '"')
                field += c;
            else if (i + 1 < text.size() && text[i + 1] == '"')
                field += text[++i];
            else
                in_quotes = false;
        } else if (c == '\n') {
            if (i > line_start) {
                row.push_back(std::move(field));
                rows.push_back(std::move(row));
            }
            row.clear();
            field.clear();
            in_quotes = false;
            line_start = i + 1;
        } else if (c == '"') {
            in_quotes = true;
        } else if (c == ',') {
            row.push_back(std::move(field));
            field.clear();
        } else if (c != '\r') {
            field += c;
        }
    }
    return rows;
}

} // namespace geo
