/**
 * @file
 * In-memory span recorder for the traced run. The benchmark opens a
 * span around each call it makes into a layer (name, start, end, and
 * the span that caused it); spans stay in memory and are written out
 * once, when the benchmark ends. Hot per-cycle observer callbacks are
 * too frequent for a span each, so they accumulate into a named
 * Accumulator (busy time + call count) instead.
 */
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Busy time and call count of one hot callback. */
struct Accumulator
{
    std::uint64_t nanos = 0;
    std::uint64_t calls = 0;

    double seconds() const { return static_cast<double>(nanos) * 1e-9; }
};

/** Times one callback invocation into an Accumulator. */
class Timed
{
  public:
    explicit Timed(Accumulator &acc) : acc_(acc), start_(Clock::now()) {}
    ~Timed()
    {
        acc_.nanos += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start_)
                .count());
        ++acc_.calls;
    }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    Accumulator &acc_;
    Clock::time_point start_;
};

/** Recorded spans of one traced run. */
class Tracer
{
  public:
    struct Span
    {
        std::uint32_t id = 0;
        std::uint32_t parent = 0; ///< 0 = root.
        std::string name;
        Clock::time_point start;
        Clock::time_point end;

        double seconds() const { return secondsBetween(start, end); }
    };

    /** RAII span; nests under the innermost open span. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Duration so far (the whole span once destroyed). */
        double seconds() const;

      private:
        Tracer *tracer_;
        std::size_t index_ = 0;
        Clock::time_point start_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Total seconds of every span named @p name. */
    double total(const std::string &name) const;

    /** Durations (seconds) of every span named @p name, in order. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Share of the root spans' wall time covered by leaf spans (spans
     * with no children): the part of the traced run some named layer
     * call accounts for.
     */
    double coverage() const;

    /** Write every span as JSON lines (times relative to the first). */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
