/**
 * @file
 * Self-test of the benchmark's own code: the median, the
 * tail-percentile sample rule, block percentiles, and the artifact digest on a tiny
 * campaign, which must not depend on the worker count. Prints
 * "tiny <digest>" for tests/test_perfbench.py to compare with
 * expected.json; exits non-zero on the first failed check.
 */
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "layers.hpp"
#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

} // namespace

int
main()
{
    expect(near(median({4, 1, 3, 2}), 2.5), "median of an even count");
    expect(near(median({9, 1, 5}), 5), "median of an odd count");

    // The percentile rule: at least ten samples beyond the percentile.
    expect(samplesForPercentile(0.5) == 20, "p50 needs 20 samples");
    expect(samplesForPercentile(0.9) == 100, "p90 needs 100 samples");
    expect(samplesForPercentile(0.99) == 1000, "p99 needs 1000 samples");
    std::vector<double> values;
    for (int i = 1; i <= 99; ++i)
        values.push_back(i);
    bool refused = false;
    try {
        (void)tailPercentile(values, 0.9);
    } catch (const std::invalid_argument &) {
        refused = true;
    }
    expect(refused, "p90 of 99 samples is refused");
    values.push_back(100);
    const double p90 = tailPercentile(values, 0.9);
    expect(near(p90, 90), "p90 of 1..100 is 90");
    std::size_t beyond = 0;
    for (double v : values)
        beyond += v > p90 ? 1 : 0;
    expect(beyond == kMinTailSamples, "ten samples lie beyond p90");

    // Block percentiles: the mean of each 100-sample block's percentile.
    for (int i = 101; i <= 250; ++i)
        values.push_back(i); // 1..250: two full blocks and a partial one.
    expect(near(blockPercentile(values, 0.5), (50 + 150) / 2.0),
           "block p50 averages the full blocks' medians");
    expect(near(blockPercentile(values, 0.9), (90 + 190) / 2.0),
           "block p90 averages the full blocks' p90s");

    // Tiny campaign: the digest is the same for one and two workers.
    nocalert::fault::CampaignConfig config;
    config.network.width = 4;
    config.network.height = 4;
    config.workload.synthetic.injectionRate = 0.05;
    config.workload.setSeed(3);
    config.warmup = 100;
    config.observeWindow = 400;
    config.drainLimit = 4000;
    config.maxSites = 6;
    config.jobs = 1;
    const std::string serial = timeCampaign(config).artifact;
    config.jobs = 2;
    const std::string parallel = timeCampaign(config).artifact;
    expect(serial == parallel, "tiny artifact depends on the worker count");
    std::printf("tiny %s\n", artifactDigest(serial).c_str());
    return failures == 0 ? 0 : 1;
}
