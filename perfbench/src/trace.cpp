#include "trace.hpp"

#include <fstream>
#include <unordered_set>

namespace perfbench {

Tracer::Scope::Scope(Tracer *tracer, const char *name)
    : tracer_(tracer), start_(Clock::now())
{
    if (!tracer_)
        return;
    Span span;
    span.id = static_cast<std::uint32_t>(tracer_->spans_.size() + 1);
    span.parent = tracer_->open_.empty() ? 0 : tracer_->open_.back();
    span.name = name;
    span.start = start_;
    index_ = tracer_->spans_.size();
    tracer_->spans_.push_back(std::move(span));
    tracer_->open_.push_back(tracer_->spans_.back().id);
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    tracer_->spans_[index_].end = Clock::now();
    tracer_->open_.pop_back();
}

double
Tracer::Scope::seconds() const
{
    return secondsBetween(start_, Clock::now());
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &span : spans_)
        if (span.name == name)
            sum += span.seconds();
    return sum;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &span : spans_)
        if (span.name == name)
            out.push_back(span.seconds());
    return out;
}

double
Tracer::coverage() const
{
    std::unordered_set<std::uint32_t> parents;
    for (const Span &span : spans_)
        parents.insert(span.parent);
    double roots = 0.0;
    double leaves = 0.0;
    for (const Span &span : spans_) {
        if (span.parent == 0)
            roots += span.seconds();
        if (!parents.count(span.id))
            leaves += span.seconds();
    }
    return roots > 0.0 ? leaves / roots : 0.0;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    if (spans_.empty())
        return static_cast<bool>(out);
    const Clock::time_point origin = spans_.front().start;
    for (const Span &span : spans_) {
        out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
            << ",\"name\":\"" << span.name << "\",\"start_s\":"
            << secondsBetween(origin, span.start)
            << ",\"end_s\":" << secondsBetween(origin, span.end) << "}\n";
    }
    return static_cast<bool>(out);
}

} // namespace perfbench
