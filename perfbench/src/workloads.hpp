/**
 * @file
 * The benchmark's workloads: the campaign configurations each one runs
 * and the fixed amount of work one benchmark run does. Every input is
 * a pure function of the workload seed, so a seed reproduces a run;
 * seed 3 reproduces the CLI defaults.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "fault/campaign.hpp"

namespace perfbench {

/** One in-process campaign workload. */
struct CampaignWorkload
{
    std::string name;
    nocalert::fault::CampaignConfig config;
    /** Fewest identical campaigns per run; the run reports medians. */
    unsigned repetitions = 1;
    /** One campaign's wall time on the reference host: --seconds
     *  buys round(seconds / nominalRepSeconds) repetitions. */
    double nominalRepSeconds = 1.0;
};

/** The daemon workload (serve-resubmit). */
struct ServeWorkload
{
    /** K distinct specs, differing only in traffic seed. */
    std::vector<nocalert::fault::CampaignConfig> specs;
    /** Closed-loop hits right after each miss, round-robin over the
     *  specs completed so far. Hits in all = K * hitsAfterMiss. */
    unsigned hitsAfterMiss = 0;
    /** Daemon restarts over the state the misses left (setup_s
     *  samples). */
    unsigned restarts = 0;
    /** Worker threads per daemon quantum. */
    unsigned jobs = 1;
};

/** `fault_campaign` CLI defaults (8x8, uniform 0.04, warmup 1000,
 *  observe 4000, drain 12000, ForEVeR on), jobs 1, fixed site count. */
CampaignWorkload campaignDefault(std::uint64_t seed);

/** Fixed-budget sampled campaign: recovery, permanent faults, a
 *  phased bursty program over four traffic seeds, jobs 2. */
CampaignWorkload sampledRecoveryBursty(std::uint64_t seed);

/** `nocalert_client` defaults (4x4, 0.05, warmup 200) per spec. */
ServeWorkload serveResubmit(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
