/**
 * @file
 * Order statistics the benchmark reports: medians, tail percentiles
 * guarded by the sample-count rule (a percentile is reported only when
 * at least kMinTailSamples samples lie beyond it), and the block
 * average of percentiles the hit latencies use.
 */
#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported tail percentile. */
inline constexpr std::size_t kMinTailSamples = 10;

/** Median (mean of the two middle values for even counts). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of no samples");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Fewest samples that leave kMinTailSamples beyond percentile @p p
 *  (p in (0, 1)): p90 needs 100, p99 needs 1000. */
inline std::size_t
samplesForPercentile(double p)
{
    return static_cast<std::size_t>(
        std::ceil(static_cast<double>(kMinTailSamples) / (1.0 - p) - 1e-9));
}

/** Nearest-rank percentile @p p of @p values; throws when fewer than
 *  kMinTailSamples samples would lie beyond it. */
inline double
tailPercentile(std::vector<double> values, double p)
{
    if (values.size() < samplesForPercentile(p))
        throw std::invalid_argument(
            "percentile " + std::to_string(p) + " needs " +
            std::to_string(samplesForPercentile(p)) + " samples, got " +
            std::to_string(values.size()));
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    return values[std::max<std::size_t>(rank, 1) - 1];
}

/** Hits per block for blockPercentile: a block's p90 then has exactly
 *  kMinTailSamples samples beyond it. */
inline constexpr std::size_t kBlockSamples = 100;

/**
 * Percentile @p p of each block of kBlockSamples consecutive samples,
 * averaged over the blocks (a trailing partial block is ignored).
 * Blocks spread over a whole run make this a time average: on a shared
 * host whose speed switches between a fast and a slow state, the
 * percentile of all samples pooled jumps between the two states' values
 * as their mix crosses the percentile, while this moves with the mix.
 */
inline double
blockPercentile(const std::vector<double> &values, double p)
{
    const std::size_t blocks = values.size() / kBlockSamples;
    if (blocks == 0)
        throw std::invalid_argument("blockPercentile needs a full block");
    double sum = 0.0;
    for (std::size_t b = 0; b < blocks; ++b) {
        const auto first = values.begin() +
                           static_cast<std::ptrdiff_t>(b * kBlockSamples);
        sum += tailPercentile({first, first + kBlockSamples}, p);
    }
    return sum / static_cast<double>(blocks);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
