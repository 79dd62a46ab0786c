/**
 * @file
 * Campaign workloads: identical in-process FaultCampaign::run calls
 * (no daemon, no socket), with closed-loop cache hits on the first
 * repetition's artifact through an in-process registry. The traced run
 * does one campaign and decomposes it layer by layer.
 */
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "benches.hpp"
#include "layers.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/** Hit bursts in each repetition after the first, and hits per burst.
 *  The host's speed wanders over tens of seconds, so the bursts run
 *  from the campaign's progress callback, spread through it, and the
 *  percentiles sample the same mix of host states as runs_per_s. The
 *  burst time is left out of the rate. */
constexpr std::size_t kBurstsPerRepetition = 6;
constexpr unsigned kHitsPerBurst = 2 * kBlockSamples;

std::size_t
plannedRuns(const CampaignWorkload &w)
{
    return w.config.sampling.enabled ? w.config.sampling.maxRuns
                                     : w.config.maxSites;
}

/** Count the campaign's runs as operations; fail an incomplete one. */
void
checkCampaign(const CampaignTiming &timing, const CampaignWorkload &w,
              Report &report)
{
    const std::size_t planned = plannedRuns(w);
    report.attempted(timing.result.runs.size());
    if (!timing.result.complete() || timing.result.runs.size() != planned)
        report.fail(w.name + ": campaign committed " +
                    std::to_string(timing.result.runs.size()) + " of " +
                    std::to_string(planned) + " runs");
    if (timing.rateRuns == 0 || timing.rateS <= 0.0)
        report.fail(w.name + ": campaign reported no progress");
}

} // namespace

void
runCampaignWorkload(const CampaignWorkload &w, bool traced,
                    const std::string &state_dir, Tracer &tracer,
                    Report &report)
{
    if (traced) {
        const CampaignTiming timing = timeCampaign(w.config);
        checkCampaign(timing, w, report);
        report.digest(w.name, artifactDigest(timing.artifact));
        LayerMetrics layers;
        layers.execWorkerUtilization = timing.workerUtilization;
        layers.execSerialSetupShare = timing.setupS / timing.totalS;
        traceCampaigns({&timing}, tracer, layers, report);
        probeArtifact(timing, state_dir, layers, report);
        layers.emit(report);
        return;
    }

    std::vector<double> setup;
    // runs_per_s pools the repetitions: their runs over their summed
    // time. The host's speed wanders over tens of seconds, and the
    // pooled rate averages all of the run's time, where a median of
    // the repetitions' rates keeps only the middle ones.
    double rateRuns = 0.0;
    double rateS = 0.0;
    std::string artifact;
    std::optional<RegistryHits> hits;
    const std::size_t burstEvery =
        std::max<std::size_t>(1, plannedRuns(w) / kBurstsPerRepetition);
    for (unsigned r = 0; r < w.repetitions; ++r) {
        const CampaignTiming timing =
            timeCampaign(w.config, [&](std::size_t done) {
                if (hits && done % burstEvery == 0)
                    hits->run(kHitsPerBurst);
            });
        checkCampaign(timing, w, report);
        if (r == 0) {
            artifact = timing.artifact;
            report.digest(w.name, artifactDigest(artifact));
            hits.emplace(timing.result.config, artifact, state_dir, report);
        } else if (timing.artifact != artifact) {
            report.fail(w.name + ": repetition " + std::to_string(r) +
                        " produced a different artifact");
        }
        setup.push_back(timing.setupS);
        rateRuns += static_cast<double>(timing.rateRuns);
        rateS += timing.rateS;
    }
    std::vector<double> hitMs;
    const HitSamples &samples = hits->samples();
    for (std::size_t i = 0; i < samples.submitUs.size(); ++i)
        hitMs.push_back((samples.submitUs[i] + samples.resultUs[i]) * 1e-3);

    report.metric("runs_per_s", rateRuns / rateS, "runs/s");
    report.metric("setup_s", median(setup), "s");
    report.metric("hit_ms_p50", blockPercentile(hitMs, 0.5), "ms");
    report.metric("hit_ms_p90", blockPercentile(hitMs, 0.9), "ms");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace perfbench
