#include "fault/sampled.hpp"

#include <algorithm>
#include <map>

#include "util/log.hpp"
#include "util/rng.hpp"

namespace nocalert::fault {

const char *
stratifyName(Stratify mode)
{
    switch (mode) {
      case Stratify::None: return "none";
      case Stratify::SignalClass: return "signal-class";
      case Stratify::Phase: return "phase";
    }
    return "?";
}

std::optional<Stratify>
stratifyFromName(std::string_view name)
{
    if (name == "none")
        return Stratify::None;
    if (name == "signal-class")
        return Stratify::SignalClass;
    if (name == "phase")
        return Stratify::Phase;
    return std::nullopt;
}

namespace {

stats::SamplerConfig
samplerConfigOf(const SamplingSpec &spec)
{
    stats::SamplerConfig config;
    config.rule.targetHalfWidth = spec.ciHalfWidth;
    config.rule.confidence = spec.confidence;
    config.rule.method = spec.method;
    config.rule.minDraws = spec.minPerStratum;
    config.maxDraws = spec.maxRuns;
    config.batchSize = spec.batchSize;
    config.reallocate = spec.reallocate;
    return config;
}

/**
 * Phase stratification's partition of the injection-offset window:
 * offset -> covering phase segment of the (normalized) workload, keyed
 * by segment index (-1 = idle gap). std::map iteration makes the
 * stratum order deterministic: idle first, then segments ascending.
 */
std::map<int, std::vector<noc::Cycle>>
phasePartition(const CampaignConfig &config)
{
    std::map<int, std::vector<noc::Cycle>> partition;
    for (noc::Cycle off = 0; off <= config.sampling.cycleJitter; ++off) {
        const int segment = nocalert::traffic::phaseSegmentAt(
            config.workload.phased, config.warmup + off);
        partition[segment].push_back(off);
    }
    return partition;
}

} // namespace

std::string
validateSamplingSpec(const SamplingSpec &spec, noc::Cycle observe_window)
{
    if (!spec.enabled)
        return std::string();
    if (spec.seedCount == 0)
        return "sampling seedCount must be positive";
    if (spec.cycleJitter < 0)
        return "sampling cycleJitter must be non-negative";
    if (observe_window > 0 && spec.cycleJitter >= observe_window / 2)
        return "sampling cycleJitter must stay under half the "
               "observation window";
    if (spec.stratify == Stratify::Phase && spec.cycleJitter < 1)
        return "phase stratification needs cycleJitter >= 1 (the "
               "jitter window is what spans the phases)";
    // The stats-layer budget guard covers the stopping rule itself.
    return stats::StratifiedSampler::validate(samplerConfigOf(spec));
}

SampledPlanner::SampledPlanner(const CampaignConfig &config,
                               std::vector<FaultSite> population)
    : spec_(config.sampling),
      sampler_(samplerConfigOf(config.sampling),
               [&] {
                   // Stratum count must be known before the sampler
                   // member constructs; compute it from the
                   // population without retaining state.
                   if (config.sampling.stratify == Stratify::None)
                       return std::size_t{1};
                   if (config.sampling.stratify == Stratify::Phase)
                       return std::max<std::size_t>(
                           phasePartition(config).size(), 1);
                   std::map<SignalClass, std::size_t> classes;
                   for (const FaultSite &site : population)
                       classes[site.signal] += 1;
                   return std::max<std::size_t>(classes.size(), 1);
               }())
{
    NOCALERT_ASSERT(!population.empty(),
                    "sampled campaign needs a non-empty site population");
    if (spec_.stratify == Stratify::None) {
        strataNames_.push_back("all");
        strataSites_.push_back(std::move(population));
        return;
    }
    if (spec_.stratify == Stratify::Phase) {
        // One stratum per phase segment the jitter window reaches
        // (plus "idle" for offsets landing in gaps). Every stratum
        // draws sites from the full population; what distinguishes
        // strata is which injection offsets they own.
        for (auto &[segment, offsets] : phasePartition(config)) {
            strataNames_.push_back(
                segment < 0 ? std::string("idle")
                            : "phase-" + std::to_string(segment));
            strataSites_.push_back(population);
            strataOffsets_.push_back(std::move(offsets));
        }
        return;
    }
    // One stratum per signal class present, in enum order (std::map
    // iterates in key order), sites in enumeration order within each
    // — all deterministic.
    std::map<SignalClass, std::vector<FaultSite>> classes;
    for (FaultSite &site : population)
        classes[site.signal].push_back(site);
    for (auto &[cls, sites] : classes) {
        strataNames_.push_back(signalClassName(cls));
        strataSites_.push_back(std::move(sites));
    }
}

SampledDraw
SampledPlanner::materialize(std::uint64_t draw_index,
                            std::uint32_t stratum) const
{
    NOCALERT_ASSERT(stratum < strataSites_.size(),
                    "draw stratum out of range");
    const std::vector<FaultSite> &sites = strataSites_[stratum];

    // Counter-mode stream keyed by the global draw index: the draw's
    // coordinates depend only on (samplerSeed, drawIndex, stratum),
    // never on threads or on when the batch was planned. The seed and
    // counter are mixed through splitMix64 before stream selection —
    // raw deriveStream is affine in (seed, index), and its first
    // output (the one the site pick consumes) collides for
    // (seed + 4, index - 1), which would turn neighbouring sampler
    // seeds into shifted copies of the same draw sequence.
    Pcg32 rng = deriveStream(
        splitMix64(splitMix64(spec_.samplerSeed) ^
                   (draw_index * 0x9e3779b97f4a7c15ULL)),
        draw_index);

    SampledDraw draw;
    draw.drawIndex = draw_index;
    draw.stratum = stratum;
    draw.site = sites[rng.nextBounded(
        static_cast<std::uint32_t>(sites.size()))];
    if (spec_.stratify == Stratify::Phase) {
        // The stratum owns a specific offset subset of the jitter
        // window; the draw picks uniformly within it.
        const std::vector<noc::Cycle> &offsets = strataOffsets_[stratum];
        draw.cycleOffset = offsets[rng.nextBounded(
            static_cast<std::uint32_t>(offsets.size()))];
    } else {
        // Legacy modes: uniform over the whole window, with the exact
        // draw order v5 artifacts were materialized under.
        draw.cycleOffset =
            spec_.cycleJitter > 0
                ? static_cast<noc::Cycle>(rng.nextBounded(
                      static_cast<std::uint32_t>(spec_.cycleJitter + 1)))
                : 0;
    }
    draw.seedIndex =
        spec_.seedCount > 1 ? rng.nextBounded(spec_.seedCount) : 0;
    return draw;
}

std::vector<SampledDraw>
SampledPlanner::planBatch()
{
    const std::uint64_t first = sampler_.drawsPlanned();
    const std::vector<std::size_t> strata = sampler_.planBatch();

    std::vector<SampledDraw> draws;
    draws.reserve(strata.size());
    for (std::size_t i = 0; i < strata.size(); ++i) {
        draws.push_back(
            materialize(first + i,
                        static_cast<std::uint32_t>(strata[i])));
    }
    return draws;
}

void
SampledPlanner::record(const FaultRunResult &run)
{
    const Outcome outcome = run.outcome();
    // Primary metric: detection. Rare metric: the false-negative
    // tail the paper claims is exactly zero — strata that produce
    // one get the splitting-style budget boost.
    sampler_.record(run.stratum, run.detected,
                    outcome == Outcome::FalseNegative);
}

std::vector<FaultSite>
sampledPopulation(const CampaignConfig &config, std::size_t &enumerated)
{
    std::vector<FaultSite> population =
        FaultSiteCatalog::enumerateNetwork(config.network);
    if (config.wireSitesOnly) {
        std::erase_if(population, [](const FaultSite &site) {
            return isStateSignal(site.signal);
        });
    }
    enumerated = population.size();
    return FaultSiteCatalog::sampleSites(
        std::move(population), config.maxSites, config.sampleSeed);
}

std::vector<FaultSite>
sampledPopulation(const CampaignConfig &config)
{
    std::size_t enumerated = 0;
    return sampledPopulation(config, enumerated);
}

namespace {

/** Counts -> estimate with both interval constructions attached. */
void
finishEstimate(StratumEstimate &estimate, double confidence)
{
    using stats::clopperPearsonInterval;
    using stats::wilsonInterval;
    estimate.detectedWilson =
        wilsonInterval(estimate.detected, estimate.draws, confidence);
    estimate.detectedClopperPearson = clopperPearsonInterval(
        estimate.detected, estimate.draws, confidence);
    estimate.falsePositiveWilson = wilsonInterval(
        estimate.falsePositives, estimate.draws, confidence);
    estimate.falsePositiveClopperPearson = clopperPearsonInterval(
        estimate.falsePositives, estimate.draws, confidence);
    estimate.falseNegativeWilson = wilsonInterval(
        estimate.falseNegatives, estimate.draws, confidence);
    estimate.falseNegativeClopperPearson = clopperPearsonInterval(
        estimate.falseNegatives, estimate.draws, confidence);
}

} // namespace

SamplingReport
computeSamplingReport(const CampaignResult &result)
{
    SamplingReport report;
    if (!result.config.sampling.enabled)
        return report;

    const SamplingSpec &spec = result.config.sampling;
    const std::vector<FaultSite> population =
        sampledPopulation(result.config);
    SampledPlanner planner(result.config, population);

    report.strata.resize(planner.strataCount());
    for (std::size_t i = 0; i < planner.strataCount(); ++i) {
        report.strata[i].name = planner.stratumName(i);
        report.strata[i].population = planner.stratumSites(i).size();
    }
    report.pooled.name = "all";
    report.pooled.population = population.size();

    auto count = [](StratumEstimate &estimate,
                    const FaultRunResult &run) {
        const Outcome outcome = run.outcome();
        estimate.draws += 1;
        if (run.detected)
            estimate.detected += 1;
        if (outcome == Outcome::FalsePositive)
            estimate.falsePositives += 1;
        if (outcome == Outcome::FalseNegative)
            estimate.falseNegatives += 1;
    };
    for (const FaultRunResult &run : result.runs) {
        NOCALERT_ASSERT(run.stratum < report.strata.size(),
                        "run stratum out of range for its config");
        count(report.strata[run.stratum], run);
        count(report.pooled, run);
    }

    const stats::StoppingRule rule =
        samplerConfigOf(spec).rule;
    for (StratumEstimate &estimate : report.strata) {
        finishEstimate(estimate, spec.confidence);
        estimate.halted = rule.satisfied(estimate.detected,
                                         estimate.draws);
    }
    finishEstimate(report.pooled, spec.confidence);
    report.pooled.halted =
        rule.satisfied(report.pooled.detected, report.pooled.draws);
    return report;
}

} // namespace nocalert::fault
