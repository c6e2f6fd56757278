#include "trace.hh"

#include <fstream>

#include "report.hh"

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 14);
}

int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

Tracer::Span::Span(Tracer *tracer, const char *name) : tracer_(tracer)
{
    if (!tracer_)
        return;
    Record rec;
    rec.name = name;
    rec.parent = tracer_->open_.empty()
                     ? -1
                     : static_cast<int64_t>(tracer_->open_.back());
    rec.decision = tracer_->decision_;
    index_ = tracer_->spans_.size();
    tracer_->open_.push_back(index_);
    rec.startNs = tracer_->nowNs();
    tracer_->spans_.push_back(rec);
}

Tracer::Span::~Span()
{
    if (!tracer_)
        return;
    tracer_->spans_[index_].endNs = tracer_->nowNs();
    tracer_->open_.pop_back();
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        if (r.endNs < 0)
            return false;
        os << (i ? ",\n" : "") << "{\"name\": \"" << jsonEscape(r.name)
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << formatNumber(static_cast<double>(r.startNs) / 1e3)
           << ", \"dur\": "
           << formatNumber(static_cast<double>(r.endNs - r.startNs) / 1e3)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << r.parent
           << ", \"decision\": " << r.decision << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
