/**
 * @file
 * What one benchmark invocation prints: metrics with units, operation
 * counts, output digests for the correctness gate, and every failure
 * found while checking outputs. The last stdout line is this record as
 * one JSON object; run.py turns it into the benchmark's result line.
 */
#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

class Report
{
  public:
    /** Record metric @p name (reported in insertion order). */
    void metric(const std::string &name, double value, const char *unit)
    {
        nocalert::JsonValue entry;
        entry.set("value", value);
        entry.set("unit", unit);
        metrics_.set(name, std::move(entry));
    }

    /** Count @p n operations whose outputs were checked. */
    void attempted(std::uint64_t n = 1) { attempted_ += n; }

    /** Record one checked operation whose output was wrong. */
    void fail(const std::string &what)
    {
        ++failed_;
        errors_.push_back(what);
    }

    /** Count an operation and fail it unless @p ok. */
    void check(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok)
            fail(what);
    }

    /** An output digest the correctness gate compares at the default
     *  seed against the benchmark's recorded values. */
    void digest(const std::string &name, const std::string &value)
    {
        digests_.set(name, value);
    }

    /** A host or build fact printed alongside the metrics. */
    void fact(const std::string &name, nocalert::JsonValue value)
    {
        facts_.set(name, std::move(value));
    }

    std::uint64_t failed() const { return failed_; }

    nocalert::JsonValue json() const
    {
        nocalert::JsonValue out;
        out.set("correct", failed_ == 0);
        out.set("attempted", attempted_);
        out.set("failed", failed_);
        out.set("metrics", metrics_);
        out.set("digests", digests_);
        nocalert::JsonValue errors(nocalert::JsonValue::Array{});
        for (const std::string &e : errors_)
            errors.push(e);
        out.set("errors", std::move(errors));
        out.set("facts", facts_);
        return out;
    }

  private:
    nocalert::JsonValue metrics_{nocalert::JsonValue::Object{}};
    nocalert::JsonValue digests_{nocalert::JsonValue::Object{}};
    nocalert::JsonValue facts_{nocalert::JsonValue::Object{}};
    std::vector<std::string> errors_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** CRC-32 and length of an artifact: "crc32hex/bytes". */
std::string artifactDigest(const std::string &artifact);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HPP
