#include "layers.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/nocalert.hpp"
#include "fault/injector.hpp"
#include "fault/sampled.hpp"
#include "fault/serialize.hpp"
#include "fault/site.hpp"
#include "forever/forever.hpp"
#include "recovery/orchestrator.hpp"
#include "stats.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"

namespace perfbench {

using namespace nocalert;
using fault::CampaignConfig;
using fault::FaultRunResult;

std::string
artifactDigest(const std::string &artifact)
{
    return crc32Hex(crc32(artifact)) + "/" + std::to_string(artifact.size());
}

CampaignTiming
timeCampaign(const CampaignConfig &config,
             const std::function<void(std::size_t)> &between)
{
    CampaignTiming timing;
    fault::FaultCampaign campaign(config);
    fault::FaultCampaign::RunOptions options;
    exec::TelemetrySnapshot last;
    options.telemetry = [&](const exec::TelemetrySnapshot &snap) {
        last = snap;
    };
    std::size_t calls = 0;
    Clock::time_point first;
    Clock::time_point latest;
    // Time spent in @p between; the last call's falls after `latest`.
    double betweenS = 0.0;
    double lastBetweenS = 0.0;
    const Clock::time_point start = Clock::now();
    timing.result = campaign.run(
        [&](std::size_t done, std::size_t) {
            latest = Clock::now();
            if (calls++ == 0)
                first = latest;
            if (between) {
                between(done);
                lastBetweenS = secondsBetween(latest, Clock::now());
                betweenS += lastBetweenS;
            }
        },
        options);
    const Clock::time_point end = Clock::now();
    timing.totalS = secondsBetween(start, end);
    if (calls > 0)
        timing.setupS = secondsBetween(start, first);
    if (calls > 1) {
        timing.rateRuns = calls - 1;
        timing.rateS =
            secondsBetween(first, latest) - (betweenS - lastBetweenS);
    }
    timing.artifact = fault::writeCampaignJson(timing.result);
    if (!last.workerUtilization.empty())
        timing.workerUtilization =
            std::accumulate(last.workerUtilization.begin(),
                            last.workerUtilization.end(), 0.0) /
            static_cast<double>(last.workerUtilization.size());
    return timing;
}

std::vector<Reference>
buildReferences(const CampaignConfig &config, Tracer *tracer)
{
    {
        Tracer::Scope span(tracer, "fault.enumerate");
        if (config.sampling.enabled) {
            (void)fault::sampledPopulation(config);
        } else {
            std::vector<fault::FaultSite> population =
                fault::FaultSiteCatalog::enumerateNetwork(config.network);
            if (config.wireSitesOnly) {
                std::erase_if(population, [](const fault::FaultSite &s) {
                    return fault::isStateSignal(s.signal);
                });
            }
            (void)fault::FaultSiteCatalog::sampleSites(
                std::move(population), config.maxSites, config.sampleSeed);
        }
    }

    const unsigned seeds =
        config.sampling.enabled ? config.sampling.seedCount : 1;
    std::vector<Reference> refs(seeds);
    for (unsigned k = 0; k < seeds; ++k) {
        traffic::WorkloadSpec workload = config.workload;
        workload.setSeed(config.workload.seed() + k);
        Reference &ref = refs[k];
        {
            Tracer::Scope span(tracer, "noc.warmup");
            ref.base.emplace(config.network, workload);
            ref.base->setKernelMode(config.denseKernel
                                        ? noc::KernelMode::Dense
                                        : noc::KernelMode::Bitmask);
            core::NoCAlertEngine guard(*ref.base);
            ref.base->run(config.warmup);
            if (!guard.log().empty())
                NOCALERT_FATAL("perfbench: alert during warmup");
            ref.base->setRouterObserver(nullptr);
            ref.base->setNiObserver(nullptr);
            ref.base->setPackedObserver(nullptr);
        }
        std::optional<noc::Network> golden;
        {
            Tracer::Scope span(tracer, "noc.golden");
            golden.emplace(*ref.base);
            core::NoCAlertEngine guard(*golden);
            golden->run(config.observeWindow);
            if (!golden->drain(config.drainLimit))
                NOCALERT_FATAL("perfbench: golden run failed to drain");
            if (!guard.log().empty())
                NOCALERT_FATAL("perfbench: alert during golden run");
            golden->setRouterObserver(nullptr);
            golden->setNiObserver(nullptr);
            golden->setPackedObserver(nullptr);
        }
        {
            Tracer::Scope span(tracer, "fault.golden_build");
            ref.golden.emplace(golden->collectEjections());
        }
    }
    return refs;
}

namespace {

/** Observer time and counts so far, for before/after differences. */
double
observerSeconds(const RunLayers &l)
{
    return l.coreRouter.seconds() + l.corePacked.seconds() +
           l.coreNi.seconds() + l.forever.seconds() + l.recovery.seconds();
}

/** Run @p f, timed into @p acc when @p on. */
template <typename F>
inline void
timedCall(bool on, Accumulator &acc, F &&f)
{
    if (on) {
        Timed t(acc);
        f();
    } else {
        f();
    }
}

} // namespace

FaultRunResult
replicaRun(const CampaignConfig &config, const Reference &ref,
           const fault::FaultSite &site, noc::Cycle inject_offset,
           Tracer *tracer, RunLayers *layers)
{
    RunLayers scratch;
    RunLayers &l = layers ? *layers : scratch;
    const bool on = layers != nullptr;
    const noc::Network &base = *ref.base;

    std::optional<noc::Network> copy;
    {
        Tracer::Scope span(tracer, "noc.snapshot_copy");
        copy.emplace(base);
    }
    noc::Network &net = *copy;

    core::NoCAlertEngine engine(net, /*attach_now=*/false);
    std::optional<forever::ForeverModel> fever;
    if (config.runForever)
        fever.emplace(net, config.forever, /*attach_now=*/false);
    if (fever && net.kernelMode() == noc::KernelMode::Bitmask)
        net.setKernelMode(noc::KernelMode::Active);

    net.setPackedObserver([&](const noc::Router &router,
                              const noc::PackedCycleEvents &ev) {
        timedCall(on, l.corePacked,
                  [&] { engine.observePacked(router, ev); });
    });
    net.setRouterObserver([&](const noc::Router &router,
                              const noc::RouterWires &wires) {
        timedCall(on, l.coreRouter,
                  [&] { engine.observeRouter(router, wires); });
        if (fever)
            timedCall(on, l.forever,
                      [&] { fever->observeRouter(router, wires); });
    });
    net.setNiObserver([&](const noc::NetworkInterface &ni,
                          const noc::NiWires &wires) {
        timedCall(on, l.coreNi, [&] { engine.observeNi(ni, wires); });
        if (fever)
            timedCall(on, l.forever, [&] { fever->observeNi(ni, wires); });
    });
    std::optional<recovery::RecoveryOrchestrator> orchestrator;
    if (config.recovery)
        orchestrator.emplace(net, engine);
    if (fever || orchestrator) {
        net.setCycleObserver([&](const noc::Network &n) {
            if (fever)
                timedCall(on, l.forever, [&] { fever->onCycleEnd(n); });
            if (orchestrator)
                timedCall(on, l.recovery,
                          [&] { orchestrator->onCycleEnd(n.cycle()); });
        });
    }

    struct NiTotals
    {
        std::uint64_t retransmits = 0, duplicates = 0, abandoned = 0;
    };
    const auto niTotals = [](const noc::Network &n) {
        NiTotals totals;
        for (noc::NodeId node = 0; node < n.config().numNodes(); ++node) {
            totals.retransmits += n.ni(node).retransmits();
            totals.duplicates += n.ni(node).duplicatesSuppressed();
            totals.abandoned += n.ni(node).packetsAbandoned();
        }
        return totals;
    };
    const NiTotals warm = config.recovery ? niTotals(base) : NiTotals{};

    FaultRunResult result;
    result.site = site;
    result.injectCycle = net.cycle() + inject_offset;
    fault::FaultInjector injector;
    injector.arm({site, result.injectCycle, config.kind});
    injector.attach(net);

    const std::uint64_t evals0 = net.routerEvaluations();
    const noc::Cycle cycle0 = net.cycle();
    const double observers0 = observerSeconds(l);
    double kernel = 0.0;
    {
        Tracer::Scope span(tracer, "noc.run");
        net.run(config.observeWindow);
        kernel += span.seconds();
    }
    {
        Tracer::Scope span(tracer, "noc.drain");
        result.drained = net.drain(config.drainLimit);
        kernel += span.seconds();
    }
    if (on)
        l.kernelSelfS += kernel - (observerSeconds(l) - observers0);
    l.routerEvals += net.routerEvaluations() - evals0;
    if (!result.drained && config.recovery) {
        result.drained = true;
        for (noc::NodeId node = 0; node < config.network.numNodes();
             ++node) {
            if (!net.ni(node).idle()) {
                result.drained = false;
                break;
            }
        }
    }
    if (fever) {
        Tracer::Scope span(tracer, "forever.epoch_tail");
        net.run(config.forever.epochLength + 2);
        if (on)
            l.epochTailS += span.seconds();
    }
    l.cycles += static_cast<std::uint64_t>(net.cycle() - cycle0);
    l.nondrained += result.drained ? 0 : 1;
    ++l.runs;

    fault::GoldenComparison comparison;
    {
        Tracer::Scope span(tracer, "fault.golden_compare");
        comparison = ref.golden->compare(net.collectEjections(),
                                         result.drained);
    }
    Tracer::Scope span(tracer, "fault.classify");
    result.violated = comparison.violated();
    result.violatedConditions = comparison.conditions();
    const core::AlertLog &log = engine.log();
    if (auto first = log.firstCycle()) {
        result.detected = true;
        result.detectionLatency = *first - result.injectCycle;
        result.alertAtInjection = *first == result.injectCycle;
        result.simultaneousCheckers =
            static_cast<unsigned>(log.invariantsAtCycle(*first).size());
    }
    if (auto first = log.firstCautiousCycle()) {
        result.detectedCautious = true;
        result.cautiousLatency = *first - result.injectCycle;
    }
    result.invariants = log.distinctInvariants();
    if (fever) {
        if (auto first = fever->firstDetection()) {
            result.foreverDetected = true;
            result.foreverLatency = *first - result.injectCycle;
        }
    }
    if (orchestrator) {
        const recovery::OrchestratorStats &stats = orchestrator->stats();
        result.recoveryTriggered = stats.actions > 0;
        result.recoveryActions = stats.actions;
        result.quarantinedPorts = stats.quarantinedPorts;
        result.purgedFlits = stats.purgedFlits;
        if (stats.actions > 0)
            result.recoveryCycle = stats.firstActionCycle;
        const NiTotals after = niTotals(net);
        result.retransmits = after.retransmits - warm.retransmits;
        result.duplicatesSuppressed = after.duplicates - warm.duplicates;
        result.packetsAbandoned = after.abandoned - warm.abandoned;
        result.recovered =
            result.detected && !result.violated && result.drained &&
            (result.recoveryTriggered || result.retransmits > 0);
    }
    return result;
}

bool
sameRun(const FaultRunResult &a, const FaultRunResult &b)
{
    FaultRunResult x = a;
    x.sampleIndex = b.sampleIndex;
    x.stratum = b.stratum;
    x.seedIndex = b.seedIndex;
    return fault::toJson(x, true).dump() == fault::toJson(b, true).dump();
}

RegistryHits::RegistryHits(const CampaignConfig &config, std::string artifact,
                           const std::string &state_dir, Report &report)
    : config_(config), artifact_(std::move(artifact)),
      key_(fault::campaignArtifactHash(config)), report_(report),
      cache_(state_dir + "/registry-cache")
{
    std::string error;
    if (!cache_.store(key_, artifact_, &error)) {
        report_.fail("cache store: " + error);
        return;
    }
    serve::RegistryConfig rc;
    rc.startScheduler = false;
    registry_.emplace(rc, cache_);
}

RegistryHits::~RegistryHits()
{
    if (!registry_)
        return;
    report_.check(registry_->stats().runsExecuted == 0,
                  "in-process hits executed runs");
    registry_->shutdown();
}

void
RegistryHits::run(unsigned hits)
{
    if (!registry_)
        return;
    for (unsigned i = 0; i < hits; ++i) {
        const Clock::time_point t0 = Clock::now();
        const serve::SubmitOutcome submitted =
            registry_->submit(config_, /*detach=*/true, /*client=*/1);
        const Clock::time_point t1 = Clock::now();
        const serve::ResultOutcome fetched = registry_->result(submitted.id);
        const Clock::time_point t2 = Clock::now();
        report_.check(submitted.cached && submitted.id == key_ &&
                          fetched.artifact && *fetched.artifact == artifact_,
                      "in-process hit " +
                          std::to_string(samples_.submitUs.size()) +
                          " was not a byte-identical cached reply");
        samples_.submitUs.push_back(secondsBetween(t0, t1) * 1e6);
        samples_.resultUs.push_back(secondsBetween(t1, t2) * 1e6);
    }
}

void
LayerMetrics::emit(Report &r) const
{
    r.metric("noc.warmup_s", nocWarmupS, "s");
    r.metric("noc.golden_s", nocGoldenS, "s");
    r.metric("noc.snapshot_copy_ms", nocSnapshotCopyMs, "ms");
    r.metric("noc.kernel_self_s", nocKernelSelfS, "s");
    r.metric("noc.ns_per_router_eval", nocNsPerRouterEval, "ns");
    r.metric("noc.router_evals_per_run", nocRouterEvalsPerRun, "count");
    r.metric("noc.cycles_per_run", nocCyclesPerRun, "count");
    r.metric("noc.nondrained_runs", nocNondrainedRuns, "count");
    r.metric("core.observe_s", coreObserveS, "s");
    r.metric("core.router_observer_calls_per_run", coreRouterCallsPerRun,
             "count");
    r.metric("core.packed_observer_calls_per_run", corePackedCallsPerRun,
             "count");
    r.metric("forever.observe_s", foreverObserveS, "s");
    r.metric("forever.epoch_tail_s", foreverEpochTailS, "s");
    r.metric("recovery.on_cycle_end_s", recoveryOnCycleEndS, "s");
    r.metric("recovery.actions_per_run", recoveryActionsPerRun, "count");
    r.metric("recovery.retransmits_per_run", recoveryRetransmitsPerRun,
             "count");
    r.metric("traffic.ns_per_node_cycle", trafficNsPerNodeCycle, "ns");
    r.metric("fault.enumerate_ms", faultEnumerateMs, "ms");
    r.metric("fault.golden_build_ms", faultGoldenBuildMs, "ms");
    r.metric("fault.golden_compare_ms", faultGoldenCompareMs, "ms");
    r.metric("fault.run_single_ms_p50", faultRunSingleMsP50, "ms");
    r.metric("fault.run_single_ms_p90", faultRunSingleMsP90, "ms");
    r.metric("exec.worker_utilization", execWorkerUtilization, "ratio");
    r.metric("exec.serial_setup_share", execSerialSetupShare, "ratio");
    r.metric("serve.identity_hash_us", serveIdentityHashUs, "us");
    r.metric("serve.registry_submit_hit_us", serveRegistrySubmitHitUs,
             "us");
    r.metric("serve.registry_result_us", serveRegistryResultUs, "us");
    r.metric("serve.cache_fetch_cold_ms", serveCacheFetchColdMs, "ms");
    r.metric("serve.checkpoint_save_ms", serveCheckpointSaveMs, "ms");
    r.metric("serve.checkpoint_load_ms", serveCheckpointLoadMs, "ms");
    r.metric("serve.quanta_per_campaign", serveQuantaPerCampaign, "count");
    r.metric("serve.daemon_overhead_frac", serveDaemonOverheadFrac,
             "ratio");
    r.metric("util.artifact_write_ms", utilArtifactWriteMs, "ms");
    r.metric("util.artifact_parse_ms", utilArtifactParseMs, "ms");
    r.metric("trace.coverage", traceCoverage, "ratio");
    r.metric("trace.overhead_frac", traceOverheadFrac, "ratio");
    r.metric("trace.replica_ratio", traceReplicaRatio, "ratio");
}

void
traceCampaigns(const std::vector<const CampaignTiming *> &campaigns,
               Tracer &tracer, LayerMetrics &m, Report &report)
{
    // The runs to replay: every committed run of every campaign.
    struct Item
    {
        const CampaignTiming *campaign;
        std::size_t reference; ///< Index into refs of that campaign.
        const FaultRunResult *run;
    };
    std::vector<std::vector<Reference>> refs;
    std::vector<Item> items;
    double untracedSetupS = 0.0;
    double tracedSetupS = 0.0;
    for (const CampaignTiming *campaign : campaigns) {
        const CampaignConfig &config = campaign->result.config;
        {
            const Clock::time_point t0 = Clock::now();
            (void)buildReferences(config, nullptr);
            untracedSetupS += secondsBetween(t0, Clock::now());
        }
        Tracer::Scope span(&tracer, "setup");
        refs.push_back(buildReferences(config, &tracer));
        tracedSetupS += span.seconds();
    }
    for (std::size_t c = 0; c < campaigns.size(); ++c)
        for (const FaultRunResult &run : campaigns[c]->result.runs)
            items.push_back({campaigns[c], c, &run});
    if (items.empty()) {
        report.fail("traced run: no committed runs to replay");
        return;
    }

    // Interleave, per run, the timed runSingle call, the untimed
    // decomposition and the traced decomposition, so host-speed drift
    // hits all three alike.
    RunLayers layers;
    std::vector<double> runSingleMs;
    std::vector<double> compareMs;
    double runSingleS = 0.0;
    double untracedRunS = 0.0;
    double tracedRunS = 0.0;
    double actions = 0.0;
    double retransmits = 0.0;
    const std::size_t calls = std::max<std::size_t>(
        items.size(), samplesForPercentile(0.9));
    for (std::size_t i = 0; i < calls; ++i) {
        const Item &item = items[i % items.size()];
        const CampaignConfig &config = item.campaign->result.config;
        const std::vector<Reference> &set = refs[item.reference];
        const Reference &ref = set[item.run->seedIndex];
        const noc::Cycle offset = item.run->injectCycle - ref.base->cycle();

        Clock::time_point t0 = Clock::now();
        const FaultRunResult direct = fault::FaultCampaign::runSingle(
            config, *ref.base, *ref.golden, item.run->site, offset);
        const double single = secondsBetween(t0, Clock::now());
        runSingleMs.push_back(single * 1e3);
        report.check(sameRun(direct, *item.run),
                     "runSingle disagrees with the artifact at run " +
                         std::to_string(item.run->sampleIndex));
        if (i >= items.size())
            continue;
        runSingleS += single;

        t0 = Clock::now();
        (void)replicaRun(config, ref, item.run->site, offset, nullptr,
                         nullptr);
        untracedRunS += secondsBetween(t0, Clock::now());

        Tracer::Scope span(&tracer, "run");
        const FaultRunResult traced = replicaRun(
            config, ref, item.run->site, offset, &tracer, &layers);
        tracedRunS += span.seconds();
        if (!sameRun(traced, *item.run))
            report.fail("trace failure: decomposed run " +
                        std::to_string(item.run->sampleIndex) +
                        " disagrees with the untraced artifact");
        else
            report.attempted();
        actions += item.run->recoveryActions;
        retransmits += static_cast<double>(item.run->retransmits);
    }
    compareMs = tracer.durations("fault.golden_compare");
    for (double &v : compareMs)
        v *= 1e3;

    // The generator alone over one run's node x cycle span, on a copy
    // of the first reference's warm generator.
    {
        const Reference &ref = refs.front().front();
        const CampaignConfig &config = campaigns.front()->result.config;
        traffic::WorkloadGenerator generator = ref.base->workload();
        const noc::Cycle begin = ref.base->cycle();
        const noc::Cycle end = begin + config.observeWindow;
        const noc::NodeId nodes = config.network.numNodes();
        std::uint64_t packets = 0;
        Tracer::Scope span(&tracer, "traffic.generate");
        for (noc::Cycle cycle = begin; cycle < end; ++cycle)
            for (noc::NodeId node = 0; node < nodes; ++node)
                packets += generator.generate(config.network, node, cycle)
                               ? 1
                               : 0;
        m.trafficNsPerNodeCycle =
            span.seconds() * 1e9 /
            static_cast<double>(nodes * (end - begin));
        report.check(packets > 0, "traffic probe generated no packets");
    }

    const double runs = static_cast<double>(layers.runs);
    const double setups = static_cast<double>(campaigns.size());
    m.nocWarmupS = tracer.total("noc.warmup") / setups;
    m.nocGoldenS = tracer.total("noc.golden") / setups;
    std::vector<double> copyMs = tracer.durations("noc.snapshot_copy");
    for (double &v : copyMs)
        v *= 1e3;
    m.nocSnapshotCopyMs = median(copyMs);
    m.nocKernelSelfS = layers.kernelSelfS / runs;
    m.nocNsPerRouterEval =
        layers.routerEvals
            ? layers.kernelSelfS * 1e9 /
                  static_cast<double>(layers.routerEvals)
            : 0.0;
    m.nocRouterEvalsPerRun = static_cast<double>(layers.routerEvals) / runs;
    m.nocCyclesPerRun = static_cast<double>(layers.cycles) / runs;
    m.nocNondrainedRuns = static_cast<double>(layers.nondrained);
    m.coreObserveS = (layers.coreRouter.seconds() +
                      layers.corePacked.seconds() + layers.coreNi.seconds()) /
                     runs;
    m.coreRouterCallsPerRun =
        static_cast<double>(layers.coreRouter.calls) / runs;
    m.corePackedCallsPerRun =
        static_cast<double>(layers.corePacked.calls) / runs;
    m.foreverObserveS = layers.forever.seconds() / runs;
    m.foreverEpochTailS = layers.epochTailS / runs;
    m.recoveryOnCycleEndS = layers.recovery.seconds() / runs;
    m.recoveryActionsPerRun = actions / runs;
    m.recoveryRetransmitsPerRun = retransmits / runs;
    m.faultEnumerateMs = tracer.total("fault.enumerate") * 1e3 / setups;
    m.faultGoldenBuildMs = tracer.total("fault.golden_build") * 1e3 / setups;
    m.faultGoldenCompareMs = median(compareMs);
    m.faultRunSingleMsP50 = median(runSingleMs);
    m.faultRunSingleMsP90 = tailPercentile(runSingleMs, 0.9);
    m.traceCoverage = tracer.coverage();
    m.traceOverheadFrac = (tracedSetupS + tracedRunS) /
                              (untracedSetupS + untracedRunS) -
                          1.0;
    m.traceReplicaRatio = untracedRunS / runSingleS;
}

void
probeArtifact(const CampaignTiming &campaign, const std::string &state_dir,
              LayerMetrics &m, Report &report)
{
    constexpr unsigned kHits = 1000;
    constexpr unsigned kIo = 21;
    const CampaignConfig &config = campaign.result.config;

    std::vector<double> hashUs;
    const std::string key = fault::campaignArtifactHash(config);
    for (unsigned i = 0; i < kHits; ++i) {
        const Clock::time_point t0 = Clock::now();
        const std::string h = fault::campaignArtifactHash(config);
        hashUs.push_back(secondsBetween(t0, Clock::now()) * 1e6);
        if (h != key)
            report.fail("identity hash is not deterministic");
    }
    m.serveIdentityHashUs = median(hashUs);

    {
        RegistryHits hits(config, campaign.artifact, state_dir, report);
        hits.run(kHits);
        if (!hits.samples().submitUs.empty()) {
            m.serveRegistrySubmitHitUs = median(hits.samples().submitUs);
            m.serveRegistryResultUs = median(hits.samples().resultUs);
        }
    }

    // Cold fetch: a fresh cache instance (index only) reading and
    // CRC-verifying the artifact the hit probe stored.
    std::vector<double> fetchMs;
    for (unsigned i = 0; i < kIo; ++i) {
        serve::ResultCache cache(state_dir + "/registry-cache");
        const Clock::time_point t0 = Clock::now();
        const std::optional<std::string> bytes = cache.fetch(key);
        fetchMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        report.check(bytes && *bytes == campaign.artifact,
                     "cold cache fetch returned different bytes");
    }
    m.serveCacheFetchColdMs = median(fetchMs);

    // Checkpoint of a half-done campaign, as a daemon quantum leaves it.
    fault::CampaignResult half = campaign.result;
    half.runs.resize(half.runs.size() / 2);
    half.samplerDone = false;
    const std::string path = state_dir + "/half.ckpt.json";
    const std::string halfJson = fault::writeCampaignJson(half);
    std::vector<double> saveMs;
    std::vector<double> loadMs;
    for (unsigned i = 0; i < kIo; ++i) {
        std::string error;
        Clock::time_point t0 = Clock::now();
        const bool saved = fault::saveCampaignResult(half, path, &error);
        saveMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        t0 = Clock::now();
        const auto loaded = fault::loadCampaignResult(path, &error);
        loadMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        report.check(saved && loaded &&
                         fault::writeCampaignJson(*loaded) == halfJson,
                     "checkpoint round trip changed the result: " + error);
    }
    m.serveCheckpointSaveMs = median(saveMs);
    m.serveCheckpointLoadMs = median(loadMs);

    std::vector<double> writeMs;
    std::vector<double> parseMs;
    for (unsigned i = 0; i < kIo; ++i) {
        Clock::time_point t0 = Clock::now();
        const std::string text = fault::writeCampaignJson(campaign.result);
        writeMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        t0 = Clock::now();
        const auto parsed = fault::readCampaignJson(text);
        parseMs.push_back(secondsBetween(t0, Clock::now()) * 1e3);
        report.check(text == campaign.artifact && parsed &&
                         parsed->runs.size() == campaign.result.runs.size(),
                     "artifact write/parse round trip differs");
    }
    m.utilArtifactWriteMs = median(writeMs);
    m.utilArtifactParseMs = median(parseMs);
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
