#include "fault/campaign.hpp"

#include <gtest/gtest.h>

#include "fault/serialize.hpp"
#include "forever/forever.hpp"

namespace nocalert::fault {
namespace {

CampaignConfig
smallCampaign(unsigned sites = 24)
{
    CampaignConfig config;
    config.network.width = 4;
    config.network.height = 4;
    config.workload.synthetic.injectionRate = 0.05;
    config.workload.synthetic.seed = 13;
    config.warmup = 200;
    config.observeWindow = 1200;
    config.drainLimit = 4000;
    config.maxSites = sites;
    config.forever.epochLength = 400;
    return config;
}

TEST(Outcomes, ClassificationMatrix)
{
    FaultRunResult run;
    run.detected = true;
    run.violated = true;
    EXPECT_EQ(run.outcome(), Outcome::TruePositive);
    run.violated = false;
    EXPECT_EQ(run.outcome(), Outcome::FalsePositive);
    run.detected = false;
    EXPECT_EQ(run.outcome(), Outcome::TrueNegative);
    run.violated = true;
    EXPECT_EQ(run.outcome(), Outcome::FalseNegative);
    EXPECT_STREQ(outcomeName(Outcome::TruePositive), "true-positive");

    // A recovered run outranks the detection matrix.
    run.detected = true;
    run.violated = false;
    run.recovered = true;
    EXPECT_EQ(run.outcome(), Outcome::DetectedRecovered);
    EXPECT_STREQ(outcomeName(Outcome::DetectedRecovered),
                 "detected-recovered");
}

TEST(Campaign, SmallCampaignEndToEnd)
{
    FaultCampaign campaign(smallCampaign());
    std::size_t progress_calls = 0;
    const CampaignResult result = campaign.run(
        [&](std::size_t done, std::size_t total) {
            ++progress_calls;
            EXPECT_LE(done, total);
        });

    EXPECT_EQ(result.runs.size(), 24u);
    EXPECT_EQ(progress_calls, 24u);
    EXPECT_GT(result.goldenFlits, 100u);
    EXPECT_GT(result.totalSitesEnumerated, 1000u);

    const CampaignSummary summary = result.summarize();
    EXPECT_EQ(summary.runs, 24u);

    // The paper's headline: zero false negatives for NoCAlert.
    EXPECT_EQ(summary.nocalert[static_cast<unsigned>(
                  Outcome::FalseNegative)],
              0u);
    // Observation 5: faults with no same-cycle alert and no later
    // alert never violate correctness.
    EXPECT_EQ(summary.noInstantViolatedUndetected, 0u);

    // The four outcomes partition the runs.
    std::uint64_t total = 0;
    for (std::uint64_t c : summary.nocalert)
        total += c;
    EXPECT_EQ(total, summary.runs);
}

TEST(Campaign, ResultsAreReproducible)
{
    FaultCampaign a(smallCampaign(10));
    FaultCampaign b(smallCampaign(10));
    const auto ra = a.run();
    const auto rb = b.run();
    ASSERT_EQ(ra.runs.size(), rb.runs.size());
    for (std::size_t i = 0; i < ra.runs.size(); ++i) {
        EXPECT_EQ(ra.runs[i].site, rb.runs[i].site);
        EXPECT_EQ(ra.runs[i].detected, rb.runs[i].detected);
        EXPECT_EQ(ra.runs[i].violated, rb.runs[i].violated);
        EXPECT_EQ(ra.runs[i].detectionLatency,
                  rb.runs[i].detectionLatency);
        EXPECT_EQ(ra.runs[i].foreverDetected, rb.runs[i].foreverDetected);
    }
}

TEST(Campaign, DetectionLatencyOnlyForDetectedRuns)
{
    FaultCampaign campaign(smallCampaign());
    const CampaignResult result = campaign.run();
    for (const FaultRunResult &run : result.runs) {
        if (run.detected) {
            EXPECT_GE(run.detectionLatency, 0);
            EXPECT_GE(run.simultaneousCheckers, 1u);
            EXPECT_FALSE(run.invariants.empty());
        } else {
            EXPECT_EQ(run.detectionLatency, kNoDetection);
            EXPECT_TRUE(run.invariants.empty());
        }
        if (run.detectedCautious) {
            EXPECT_TRUE(run.detected);
        }
        if (run.alertAtInjection) {
            EXPECT_TRUE(run.detected);
            EXPECT_EQ(run.detectionLatency, 0);
        }
    }
}

TEST(Campaign, CautiousNeverAddsFalseNegativesBeyondLowRisk)
{
    FaultCampaign campaign(smallCampaign(30));
    const auto summary = campaign.run().summarize();
    // Cautious mode may convert low-risk-only FPs into TNs but must
    // never lose a true positive (Observation 2: invariants 1/3 alone
    // are benign).
    EXPECT_EQ(summary.cautious[static_cast<unsigned>(
                  Outcome::FalseNegative)],
              0u);
    EXPECT_LE(summary.cautious[static_cast<unsigned>(
                  Outcome::FalsePositive)],
              summary.nocalert[static_cast<unsigned>(
                  Outcome::FalsePositive)]);
}

TEST(Campaign, RunSingleBuildingBlock)
{
    CampaignConfig config = smallCampaign();
    config.workload.synthetic.stopCycle = config.warmup + config.observeWindow;

    noc::Network base(config.network, config.workload);
    base.run(config.warmup);

    noc::Network golden(base);
    golden.run(config.observeWindow);
    ASSERT_TRUE(golden.drain(config.drainLimit));
    const GoldenReference reference(golden.collectEjections());

    FaultSite site;
    site.router = 5;
    site.signal = SignalClass::Sa2Grant;
    site.port = noc::portIndex(noc::Port::East);
    site.bit = 0;

    const FaultRunResult run =
        FaultCampaign::runSingle(config, base, reference, site);
    EXPECT_EQ(run.injectCycle, config.warmup);
    EXPECT_EQ(run.site, site);
    // Either detected or benign — never a silent violation.
    if (!run.detected) {
        EXPECT_FALSE(run.violated);
    }
}

TEST(Campaign, WireSitesOnlyExcludesRegisters)
{
    CampaignConfig config = smallCampaign(20);
    config.wireSitesOnly = true;
    const auto result = FaultCampaign(config).run();
    EXPECT_GT(result.totalSitesEnumerated, 100u);
    for (const FaultRunResult &run : result.runs)
        EXPECT_FALSE(isStateSignal(run.site.signal))
            << run.site.describe();
}

TEST(Campaign, RecoveryModeClassifiesRecoveredRuns)
{
    CampaignConfig config = smallCampaign();
    config.kind = FaultKind::Permanent;
    config.recovery = true;
    config.drainLimit = 12000; // room for the full retry/backoff chain

    FaultCampaign campaign(config);
    const CampaignResult result = campaign.run();

    // The recovery switch forces the full stack on: retransmission,
    // quarantine-aware routing, and no ForEVeR epochs.
    EXPECT_TRUE(result.config.network.retransmit.enabled);
    EXPECT_EQ(result.config.network.routing, noc::RoutingAlgo::QAdaptive);
    EXPECT_FALSE(result.config.runForever);

    const CampaignSummary summary = result.summarize();
    EXPECT_GE(summary.nocalert[static_cast<unsigned>(
                  Outcome::DetectedRecovered)],
              1u);

    // The five outcomes still partition the runs.
    std::uint64_t total = 0;
    for (std::uint64_t c : summary.nocalert)
        total += c;
    EXPECT_EQ(total, summary.runs);

    for (const FaultRunResult &run : result.runs) {
        if (run.recovered) {
            EXPECT_TRUE(run.detected);
            EXPECT_FALSE(run.violated);
            EXPECT_TRUE(run.drained);
            EXPECT_TRUE(run.recoveryTriggered || run.retransmits > 0);
        }
        if (run.recoveryTriggered) {
            EXPECT_NE(run.recoveryCycle, kNoDetection);
            EXPECT_GE(run.recoveryCycle, run.injectCycle);
            EXPECT_GE(run.recoveryActions, 1u);
        } else {
            EXPECT_EQ(run.recoveryCycle, kNoDetection);
            EXPECT_EQ(run.recoveryActions, 0u);
        }
    }
}

TEST(Campaign, RecoveryDisabledKeepsSchemaV2Classification)
{
    CampaignConfig config = smallCampaign();
    config.kind = FaultKind::Permanent;
    const CampaignResult result = FaultCampaign(config).run();
    for (const FaultRunResult &run : result.runs) {
        EXPECT_FALSE(run.recovered);
        EXPECT_FALSE(run.recoveryTriggered);
        EXPECT_EQ(run.recoveryCycle, kNoDetection);
        EXPECT_EQ(run.recoveryActions, 0u);
        EXPECT_EQ(run.retransmits, 0u);
        EXPECT_EQ(run.duplicatesSuppressed, 0u);
        EXPECT_EQ(run.packetsAbandoned, 0u);
        EXPECT_NE(run.outcome(), Outcome::DetectedRecovered);
    }
    EXPECT_EQ(result.summarize().nocalert[static_cast<unsigned>(
                  Outcome::DetectedRecovered)],
              0u);
}

TEST(Campaign, ForeverCanBeDisabled)
{
    CampaignConfig config = smallCampaign(8);
    config.runForever = false;
    const auto result = FaultCampaign(config).run();
    for (const FaultRunResult &run : result.runs) {
        EXPECT_FALSE(run.foreverDetected);
        EXPECT_EQ(run.foreverLatency, kNoDetection);
    }
}

TEST(Campaign, ForeverAlarmsBeforeTheInjectionAreNotDetections)
{
    // A phase shift under ForEVeR's epoch check raises alarms on the
    // fault-free network; with the injection jittered past the first
    // epoch boundary, such an alarm predates the fault.
    CampaignConfig config = smallCampaign();
    config.workload.kind = traffic::WorkloadKind::Phased;
    ASSERT_EQ(traffic::parsePhaseProgram(
                  "0:200:uniform:0.02,200:400:transpose:0.2",
                  config.workload.phased),
              "");
    config.workload.phased.repeat = true;
    config.workload.setSeed(13);
    config.workload.setStopCycle(config.warmup + config.observeWindow);
    config.forever.epochLength = 200;
    const noc::Cycle offset = 2 * config.forever.epochLength;

    noc::Network base(config.network, config.workload);
    base.run(config.warmup);
    noc::Network golden(base);
    golden.run(config.observeWindow);
    ASSERT_TRUE(golden.drain(config.drainLimit));
    const GoldenReference reference(golden.collectEjections());

    // The premise: fault-free, ForEVeR alarms before the injection.
    noc::Network probe(base);
    const forever::ForeverModel model(probe, config.forever);
    probe.run(offset);
    ASSERT_TRUE(model.firstDetection().has_value());

    FaultSite site;
    site.router = 5;
    site.signal = SignalClass::Sa2Grant;
    site.port = noc::portIndex(noc::Port::East);
    const FaultRunResult run =
        FaultCampaign::runSingle(config, base, reference, site, offset);
    EXPECT_EQ(run.injectCycle, config.warmup + offset);
    if (run.foreverDetected)
        EXPECT_GE(run.foreverLatency, 0);
    else
        EXPECT_EQ(run.foreverLatency, kNoDetection);

    // The record reads back (the reader rejects a detection with a
    // negative latency).
    std::string error;
    EXPECT_TRUE(faultRunFromJson(toJson(run), &error).has_value())
        << error;
}

} // namespace
} // namespace nocalert::fault
