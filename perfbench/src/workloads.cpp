#include "workloads.hpp"

#include "traffic/workload.hpp"
#include "util/log.hpp"

namespace perfbench {

using nocalert::fault::CampaignConfig;

CampaignWorkload
campaignDefault(std::uint64_t seed)
{
    CampaignWorkload w;
    w.name = "campaign-default";
    CampaignConfig &c = w.config;
    c.network.width = 8;
    c.network.height = 8;
    c.workload.synthetic.injectionRate = 0.04;
    c.workload.setSeed(seed);
    // The site sample stays at the CLI's (sample seed 7) for every
    // workload seed: a run's cost depends mostly on its site (a run
    // that does not drain simulates the whole drain limit), so a fixed
    // site list keeps the work per run the same across seeds.
    c.sampleSeed = 7;
    c.warmup = 1000;
    c.observeWindow = 4000;
    c.drainLimit = 12000;
    c.maxSites = 12;
    c.jobs = 1;
    w.repetitions = 3;
    w.nominalRepSeconds = 4.5;
    return w;
}

CampaignWorkload
sampledRecoveryBursty(std::uint64_t seed)
{
    CampaignWorkload w;
    w.name = "sampled-recovery-bursty";
    CampaignConfig &c = w.config;
    c.network.width = 8;
    c.network.height = 8;
    c.workload.kind = nocalert::traffic::WorkloadKind::Phased;
    std::string error = nocalert::traffic::parsePhaseProgram(
        "0:500:uniform:0.03,500:1000:transpose:0.04,"
        "1000:1500:hotspot:0.02:27:0.3",
        c.workload.phased);
    if (error.empty())
        error = nocalert::traffic::parseBurstSpec(
            "128:0.5:2.0:0.25:3", c.workload.phased.burst);
    if (!error.empty())
        NOCALERT_FATAL("perfbench: bad phase program: ", error);
    c.workload.phased.repeat = true;
    c.workload.setSeed(seed);
    c.warmup = 400;
    c.kind = nocalert::fault::FaultKind::Permanent;
    c.recovery = true;
    c.sampling.enabled = true;
    c.sampling.ciHalfWidth = 0.0;
    c.sampling.maxRuns = 64;
    c.sampling.cycleJitter = 1500;
    c.sampling.seedCount = 4;
    // Fixed for the reason campaignDefault fixes its site sample.
    c.sampling.samplerSeed = 5;
    c.jobs = 2;
    w.repetitions = 2;
    w.nominalRepSeconds = 7.0;
    return w;
}

ServeWorkload
serveResubmit(std::uint64_t seed)
{
    ServeWorkload w;
    // Twelve misses of 24 sites: each campaign takes two quanta (16 + 8
    // runs), so the quantum resume path runs on every spec, and the
    // hit bursts after the misses sample the host at twelve points
    // spread over the whole run.
    for (std::uint64_t k = 0; k < 12; ++k) {
        CampaignConfig c;
        c.network.width = 4;
        c.network.height = 4;
        c.workload.synthetic.injectionRate = 0.05;
        c.workload.setSeed(seed * 12 + k);
        c.warmup = 200;
        c.maxSites = 24;
        w.specs.push_back(c);
    }
    // 12 * 300 = 3600 hits: 36 blocks of 100.
    w.hitsAfterMiss = 300;
    w.restarts = 50;
    w.jobs = 1;
    return w;
}

} // namespace perfbench
