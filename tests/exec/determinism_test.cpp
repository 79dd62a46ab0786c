/**
 * The tentpole property: a campaign serializes to *byte-identical*
 * JSON no matter how many workers executed it. Runs the same tiny
 * campaign at --jobs 1 / 4 / run-count across both kernels and both
 * detection/recovery modes and diffs the full artifacts.
 */

#include "fault/campaign.hpp"
#include "fault/serialize.hpp"

#include <gtest/gtest.h>

#include <string>

namespace nocalert::fault {
namespace {

CampaignConfig
tinyCampaign(bool recovery, bool dense_kernel)
{
    CampaignConfig config;
    config.network.width = 4;
    config.network.height = 4;
    config.workload.synthetic.injectionRate = 0.05;
    config.workload.synthetic.seed = 13;
    config.warmup = 200;
    config.observeWindow = 1200;
    config.drainLimit = recovery ? 8000 : 4000;
    config.maxSites = 8;
    config.forever.epochLength = 400;
    config.recovery = recovery;
    config.denseKernel = dense_kernel;
    return config;
}

std::string
artifactAtJobs(CampaignConfig config, unsigned jobs)
{
    config.jobs = jobs;
    FaultCampaign campaign(config);
    const CampaignResult result = campaign.run();
    EXPECT_TRUE(result.complete());
    return writeCampaignJson(result);
}

class Determinism : public ::testing::TestWithParam<std::pair<bool, bool>>
{
};

TEST_P(Determinism, ArtifactIsByteIdenticalAcrossJobs)
{
    const auto [recovery, dense] = GetParam();
    const CampaignConfig config = tinyCampaign(recovery, dense);

    const std::string serial = artifactAtJobs(config, 1);
    ASSERT_FALSE(serial.empty());

    // jobs=4 exercises stealing; jobs=maxSites gives every run its
    // own worker (maximum reordering pressure on the reducer).
    EXPECT_EQ(artifactAtJobs(config, 4), serial);
    EXPECT_EQ(artifactAtJobs(config, config.maxSites), serial);
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndModes, Determinism,
    ::testing::Values(std::make_pair(false, false),  // detection, bitmask
                      std::make_pair(false, true),   // detection, dense
                      std::make_pair(true, false),   // recovery, bitmask
                      std::make_pair(true, true)),   // recovery, dense
    [](const ::testing::TestParamInfo<std::pair<bool, bool>> &info) {
        std::string name = info.param.first ? "Recovery" : "Detection";
        name += info.param.second ? "Dense" : "Bitmask";
        return name;
    });

TEST(Determinism, TelemetryBlockMatchesRunsForEveryJobsCount)
{
    const CampaignConfig config = tinyCampaign(false, false);
    for (const unsigned jobs : {1u, 4u}) {
        CampaignConfig run_config = config;
        run_config.jobs = jobs;
        FaultCampaign campaign(run_config);
        const CampaignResult result = campaign.run();
        const CampaignTelemetry telemetry = computeTelemetry(result);
        EXPECT_EQ(telemetry.runsPlanned, result.shardRunsPlanned);
        EXPECT_EQ(telemetry.runsCompleted, result.runs.size());
        std::uint64_t total = 0;
        for (const std::uint64_t count : telemetry.outcomes)
            total += count;
        EXPECT_EQ(total, telemetry.runsCompleted);
    }
}

} // namespace
} // namespace nocalert::fault
