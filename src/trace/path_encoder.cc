#include "trace/path_encoder.hh"

#include "util/logging.hh"

namespace geo {
namespace trace {

PathEncoder::PathEncoder(uint64_t radix) : radix_(radix)
{
    if (radix_ < 2)
        panic("PathEncoder: radix must be >= 2, got %llu",
              static_cast<unsigned long long>(radix_));
}

std::vector<std::string>
PathEncoder::splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::string current;
    for (char c : path) {
        if (c == '/') {
            if (!current.empty()) {
                parts.push_back(std::move(current));
                current.clear();
            }
        } else {
            current += c;
        }
    }
    if (!current.empty())
        parts.push_back(std::move(current));
    return parts;
}

uint64_t
PathEncoder::encode(const std::string &path)
{
    std::vector<std::string> parts = splitPath(path);
    if (parts.empty())
        return 0;
    uint64_t code = 0;
    for (const std::string &part : parts) {
        uint64_t index =
            toIndex_.try_emplace(part, toIndex_.size() + 1).first->second;
        if (index >= radix_)
            panic("PathEncoder: dictionary overflowed radix %llu",
                  static_cast<unsigned long long>(radix_));
        code = code * radix_ + index;
    }
    return code;
}

} // namespace trace
} // namespace geo
