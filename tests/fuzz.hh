/**
 * @file
 * Seeded mutation fuzzing shared by the loader tests.
 *
 * libFuzzer is not available, so the loader tests derive their hostile
 * inputs from a deterministic byte mutator: from one seed text and one
 * seed number it flips, inserts and deletes bytes, duplicates lines and
 * replaces numbers with huge ones, the same mutants on every run.
 */

#ifndef GEO_TESTS_FUZZ_HH
#define GEO_TESTS_FUZZ_HH

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace geo {
namespace fuzz {

/** Mutants a loader test derives from each seed text. */
constexpr size_t kMutants = 1000;

/** Deterministic byte mutator over one seed text. */
class Mutator
{
  public:
    Mutator(std::string seed, uint64_t rngSeed)
        : seed_(std::move(seed)), gen_(rngSeed)
    {
        // Lines grouped by their first token, so that every key is
        // as likely a target as any other, however many lines it has.
        std::map<std::string, size_t> group;
        for (size_t at = 0; at < seed_.size();) {
            size_t end = seed_.find('\n', at);
            if (end == std::string::npos)
                end = seed_.size();
            size_t stop = std::min(seed_.find(' ', at), end);
            std::string head = seed_.substr(at, stop - at);
            auto [it, fresh] = group.emplace(head, lines_.size());
            if (fresh)
                lines_.emplace_back();
            lines_[it->second].push_back(at);
            at = end + 1;
        }
    }

    /** The seed text with one to three mutations. */
    std::string
    next()
    {
        std::string text = seed_;
        for (size_t n = 1 + gen_() % 3; n > 0; --n)
            mutateOnce(text);
        return text;
    }

  private:
    void
    mutateOnce(std::string &text)
    {
        size_t at = text.empty() ? 0 : gen_() % text.size();
        switch (gen_() % 5) {
        case 0: // flip one bit
            if (!text.empty())
                text[at] = static_cast<char>(text[at] ^ (1 << gen_() % 8));
            break;
        case 1: // insert a byte
            text.insert(at, 1, static_cast<char>(gen_()));
            break;
        case 2: // delete a byte
            if (!text.empty())
                text.erase(at, 1);
            break;
        case 3: { // duplicate a line
            size_t start = lineStart(text);
            size_t end = text.find('\n', start);
            end = end == std::string::npos ? text.size() : end + 1;
            text.insert(start, text.substr(start, end - start));
            break;
        }
        default: { // replace a line's first number with a huge one
            static const char *const huge[] = {
                "18446744073709551615", "99999999999999999999",
                "1000000000000000000", "999999999999999"};
            // The number after the key of a "key value" line, or the
            // first one of a text with no space (JSON, CSV).
            size_t start = lineStart(text);
            size_t space = text.find(' ', start);
            size_t digit = text.find_first_of(
                "0123456789", space == std::string::npos ? start : space);
            if (digit == std::string::npos)
                break;
            size_t end = text.find_first_not_of("0123456789", digit);
            if (end == std::string::npos)
                end = text.size();
            text.replace(digit, end - digit, huge[gen_() % std::size(huge)]);
            break;
        }
        }
    }

    /** Start of a random line of the seed (clamped to `text`). */
    size_t
    lineStart(const std::string &text)
    {
        const std::vector<size_t> &group = lines_[gen_() % lines_.size()];
        size_t start = group[gen_() % group.size()];
        return std::min(start, text.size());
    }

    std::string seed_;
    std::mt19937_64 gen_;
    std::vector<std::vector<size_t>> lines_;
};

/** Keeps the thousands of expected rejections out of the log. */
class QuietLog
{
  public:
    QuietLog() : saved_(logLevel()) { setLogLevel(LogLevel::Quiet); }
    ~QuietLog() { setLogLevel(saved_); }

  private:
    LogLevel saved_;
};

} // namespace fuzz
} // namespace geo

#endif // GEO_TESTS_FUZZ_HH
