/**
 * Determinism and resume properties of the *sampled* campaign engine:
 * the dynamic run stream (batches planned from outcomes) must still
 * serialize to byte-identical JSON for every worker count, and an
 * interrupted campaign — whether stopped by a run limit or by a
 * cancellation token — must resume from its checkpoint and converge
 * to the very same artifact.
 */

#include "exec/cancel.hpp"
#include "fault/campaign.hpp"
#include "fault/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

namespace nocalert::fault {
namespace {

CampaignConfig
tinySampled(bool recovery)
{
    CampaignConfig config;
    config.network.width = 4;
    config.network.height = 4;
    config.workload.synthetic.injectionRate = 0.05;
    config.workload.synthetic.seed = 13;
    config.warmup = 200;
    config.observeWindow = 1200;
    config.drainLimit = recovery ? 8000 : 4000;
    config.maxSites = 12;
    config.runForever = false;
    config.recovery = recovery;
    config.sampling.enabled = true;
    config.sampling.ciHalfWidth = 0.0; // fixed budget
    config.sampling.maxRuns = 24;
    config.sampling.batchSize = 8;
    config.sampling.cycleJitter = 64;
    config.sampling.samplerSeed = 11;
    return config;
}

std::string
artifactAtJobs(CampaignConfig config, unsigned jobs)
{
    config.jobs = jobs;
    FaultCampaign campaign(config);
    const CampaignResult result = campaign.run();
    EXPECT_TRUE(result.complete());
    EXPECT_EQ(result.samplerDone, config.sampling.enabled);
    return writeCampaignJson(result);
}

/** Unique temp path for a checkpoint; removed by the caller. */
std::string
checkpointPath(const char *tag)
{
    return (std::filesystem::path(::testing::TempDir()) /
            (std::string("nocalert_sampled_") + tag + ".json"))
        .string();
}

class SampledDeterminism : public ::testing::TestWithParam<bool>
{
};

TEST_P(SampledDeterminism, ArtifactIsByteIdenticalAcrossJobs)
{
    const CampaignConfig config = tinySampled(GetParam());

    const std::string serial = artifactAtJobs(config, 1);
    ASSERT_FALSE(serial.empty());

    // jobs=2 exercises stealing across a growing run stream; jobs=
    // batchSize gives every draw of a batch its own worker (maximum
    // commit-reordering pressure within the batch quantum).
    EXPECT_EQ(artifactAtJobs(config, 2), serial);
    EXPECT_EQ(artifactAtJobs(config, config.sampling.batchSize),
              serial);
}

TEST_P(SampledDeterminism, RunLimitCheckpointResumesToSameArtifact)
{
    const bool recovery = GetParam();
    const std::string reference =
        artifactAtJobs(tinySampled(recovery), 1);

    // Interrupt mid-campaign (and mid-batch: 10 is not a batch
    // multiple) via the run limit, then resume with a different jobs
    // count. The resumed artifact must converge byte-identically.
    CampaignConfig config = tinySampled(recovery);
    config.checkpointPath =
        checkpointPath(recovery ? "limit_rec" : "limit_det");
    config.jobs = 1;
    {
        FaultCampaign campaign(config);
        FaultCampaign::RunOptions options;
        options.maxNewRuns = 10;
        const CampaignResult partial = campaign.run(nullptr, options);
        EXPECT_FALSE(partial.complete());
        EXPECT_EQ(partial.runs.size(), 10u);
    }
    config.jobs = 3;
    FaultCampaign campaign(config);
    const CampaignResult resumed = campaign.run();
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(writeCampaignJson(resumed), reference);
    std::remove(config.checkpointPath.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SampledDeterminism, ::testing::Values(false, true),
    [](const ::testing::TestParamInfo<bool> &info) {
        return info.param ? std::string("Recovery")
                          : std::string("Detection");
    });

/**
 * Cancel @p base's campaign mid-run the way SIGINT does, then resume
 * it: the engine must flush a checkpoint of the committed runs, and
 * the next invocation must replay it into the uninterrupted artifact.
 */
void
checkCancellationResumes(const CampaignConfig &base)
{
    const std::string reference = artifactAtJobs(base, 1);

    CampaignConfig config = base;
    config.checkpointPath = checkpointPath("cancel");
    config.checkpointEvery = 4;
    config.jobs = 2;
    exec::CancelToken cancel;
    std::size_t committed = 0;
    {
        FaultCampaign campaign(config);
        FaultCampaign::RunOptions options;
        options.cancel = &cancel;
        options.telemetry =
            [&](const exec::TelemetrySnapshot &snapshot) {
                if (snapshot.runsCompleted >= 7)
                    cancel.cancel();
            };
        const CampaignResult partial = campaign.run(nullptr, options);
        committed = partial.runs.size();
        EXPECT_FALSE(partial.complete());
        EXPECT_GE(committed, 7u);
        EXPECT_LT(committed, 24u);
    }
    FaultCampaign campaign(config);
    const CampaignResult resumed = campaign.run();
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(writeCampaignJson(resumed), reference);
    std::remove(config.checkpointPath.c_str());
}

TEST(SampledDeterminism, CancellationCheckpointResumesToSameArtifact)
{
    // Both planners share the one campaign loop, so its cancel path
    // is checked on each: the sampled draws, and an exhaustive sweep
    // of as many runs (one batch over a 24-site list).
    for (const bool sampled : {true, false}) {
        SCOPED_TRACE(sampled ? "sampled" : "exhaustive");
        CampaignConfig base = tinySampled(false);
        base.sampling.enabled = sampled;
        if (!sampled)
            base.maxSites = 24;
        checkCancellationResumes(base);
    }
}

TEST(SampledDeterminism, AdaptiveStoppingHaltsBeforeBudget)
{
    // With a generous half-width target the stopping rule — not the
    // budget — must end the campaign, and the decision must be
    // jobs-independent like everything else.
    CampaignConfig config = tinySampled(false);
    config.sampling.ciHalfWidth = 0.3;
    config.sampling.maxRuns = 500;
    config.sampling.batchSize = 16;

    config.jobs = 1;
    FaultCampaign campaign(config);
    const CampaignResult result = campaign.run();
    EXPECT_TRUE(result.complete());
    EXPECT_TRUE(result.samplerDone);
    EXPECT_LT(result.runs.size(), 500u);
    EXPECT_EQ(writeCampaignJson(result), artifactAtJobs(config, 2));
}

} // namespace
} // namespace nocalert::fault
