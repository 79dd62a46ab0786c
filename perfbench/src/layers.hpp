/**
 * @file
 * Calls into the program's layers, timed from outside: one in-process
 * campaign timed through its progress callback, the step-by-step
 * decomposition of FaultCampaign's reference build and runSingle that
 * the traced run wraps in spans, the in-process service probes, and
 * the per-layer metric record every traced run prints.
 */
#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/golden.hpp"
#include "noc/network.hpp"
#include "report.hpp"
#include "serve/cache.hpp"
#include "serve/registry.hpp"
#include "trace.hpp"

namespace perfbench {

/** One FaultCampaign::run, timed through its progress callback. */
struct CampaignTiming
{
    double setupS = 0.0;   ///< run() call to the first progress callback.
    std::size_t rateRuns = 0; ///< Runs after the first...
    double rateS = 0.0;       ///< ...and the first-to-last callback span.
    double totalS = 0.0;   ///< run() call to its return.
    nocalert::fault::CampaignResult result;
    std::string artifact;  ///< writeCampaignJson(result).
    /** Mean of the last telemetry snapshot's worker utilization. */
    double workerUtilization = 0.0;
};

/**
 * Run @p config in-process (no checkpoint) and time it. @p between, when
 * set, is called with the committed-run count from each progress
 * callback after the first timestamp is taken; the time it takes inside
 * the first-to-last span is left out of rateS.
 */
CampaignTiming
timeCampaign(const nocalert::fault::CampaignConfig &config,
             const std::function<void(std::size_t)> &between = {});

/** A warm snapshot and its golden reference for one traffic seed. */
struct Reference
{
    std::optional<nocalert::noc::Network> base;
    std::optional<nocalert::fault::GoldenReference> golden;
};

/**
 * The campaign's set-up, step by step as FaultCampaign::run does it:
 * site enumeration and sampling, then warmup, golden run and golden
 * index per traffic seed. @p config is the normalized config (as an
 * artifact records it). Spans go to @p tracer when non-null.
 */
std::vector<Reference> buildReferences(
    const nocalert::fault::CampaignConfig &config, Tracer *tracer);

/** Per-layer totals over decomposed runs. */
struct RunLayers
{
    Accumulator coreRouter;  ///< NoCAlertEngine::observeRouter.
    Accumulator corePacked;  ///< NoCAlertEngine::observePacked.
    Accumulator coreNi;      ///< NoCAlertEngine::observeNi.
    Accumulator forever;     ///< Every ForeverModel callback.
    Accumulator recovery;    ///< RecoveryOrchestrator::onCycleEnd.
    double kernelSelfS = 0.0; ///< run + drain minus observer time.
    double epochTailS = 0.0;  ///< ForEVeR's extra epoch per run.
    std::uint64_t routerEvals = 0;
    std::uint64_t cycles = 0;
    std::uint64_t nondrained = 0;
    std::uint64_t runs = 0;
};

/**
 * FaultCampaign::runSingle step by step with the same observers. With
 * a null @p layers the steps run untimed (the decomposition's own
 * cost, compared against runSingle for trace.replica_ratio).
 */
nocalert::fault::FaultRunResult replicaRun(
    const nocalert::fault::CampaignConfig &config, const Reference &ref,
    const nocalert::fault::FaultSite &site,
    nocalert::noc::Cycle inject_offset, Tracer *tracer,
    RunLayers *layers);

/** True iff two run records agree on every classified field. */
bool sameRun(const nocalert::fault::FaultRunResult &a,
             const nocalert::fault::FaultRunResult &b);

/** Per-call microseconds of registry hits. */
struct HitSamples
{
    std::vector<double> submitUs;
    std::vector<double> resultUs;
};

/**
 * Closed-loop cache hits against an in-process CampaignRegistry (no
 * socket, no scheduler thread) whose cache holds a campaign's artifact:
 * each hit is a submit answered `cached` plus the result fetch. Checks
 * every reply, and on destruction that no hit executed a run.
 */
class RegistryHits
{
  public:
    RegistryHits(const nocalert::fault::CampaignConfig &config,
                 std::string artifact, const std::string &state_dir,
                 Report &report);
    ~RegistryHits();
    RegistryHits(const RegistryHits &) = delete;
    RegistryHits &operator=(const RegistryHits &) = delete;

    /** Run @p hits more hits, appending to samples(). */
    void run(unsigned hits);
    const HitSamples &samples() const { return samples_; }

  private:
    nocalert::fault::CampaignConfig config_;
    std::string artifact_;
    std::string key_;
    Report &report_;
    nocalert::serve::ResultCache cache_;
    std::optional<nocalert::serve::CampaignRegistry> registry_;
    HitSamples samples_;
};

/** Every per-layer metric, zero where a layer has no work on the
 *  workload; emit() prints them in BENCHMARK.json order. */
struct LayerMetrics
{
    double nocWarmupS = 0, nocGoldenS = 0, nocSnapshotCopyMs = 0,
           nocKernelSelfS = 0, nocNsPerRouterEval = 0,
           nocRouterEvalsPerRun = 0, nocCyclesPerRun = 0,
           nocNondrainedRuns = 0;
    double coreObserveS = 0, coreRouterCallsPerRun = 0,
           corePackedCallsPerRun = 0;
    double foreverObserveS = 0, foreverEpochTailS = 0;
    double recoveryOnCycleEndS = 0, recoveryActionsPerRun = 0,
           recoveryRetransmitsPerRun = 0;
    double trafficNsPerNodeCycle = 0;
    double faultEnumerateMs = 0, faultGoldenBuildMs = 0,
           faultGoldenCompareMs = 0, faultRunSingleMsP50 = 0,
           faultRunSingleMsP90 = 0;
    double execWorkerUtilization = 0, execSerialSetupShare = 0;
    double serveIdentityHashUs = 0, serveRegistrySubmitHitUs = 0,
           serveRegistryResultUs = 0, serveCacheFetchColdMs = 0,
           serveCheckpointSaveMs = 0, serveCheckpointLoadMs = 0,
           serveQuantaPerCampaign = 0, serveDaemonOverheadFrac = 0;
    double utilArtifactWriteMs = 0, utilArtifactParseMs = 0;
    double traceCoverage = 0, traceOverheadFrac = 0,
           traceReplicaRatio = 0;

    void emit(Report &report) const;
};

/**
 * The traced decomposition of finished campaigns: rebuild each one's
 * set-up and replay every committed run step by step (untimed and
 * traced), time FaultCampaign::runSingle over at least 100 runs, and
 * check each replayed outcome against the artifact. Fills the noc,
 * core, forever, recovery, traffic, fault and trace fields.
 */
void traceCampaigns(const std::vector<const CampaignTiming *> &campaigns,
                    Tracer &tracer, LayerMetrics &layers, Report &report);

/**
 * In-process service and serializer probes on one finished campaign:
 * identity hash, registry hit and result, cold cache fetch, checkpoint
 * save/load of a half-done result, artifact write and parse. Fills the
 * serve and util fields (except the daemon-only ones).
 */
void probeArtifact(const CampaignTiming &campaign,
                   const std::string &state_dir, LayerMetrics &layers,
                   Report &report);

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
