#include "fault/campaign.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <utility>

#include "core/nocalert.hpp"
#include "exec/executor.hpp"
#include "fault/sampled.hpp"
#include "fault/serialize.hpp"
#include "recovery/orchestrator.hpp"
#include "util/log.hpp"

namespace nocalert::fault {

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
      case Outcome::TruePositive: return "true-positive";
      case Outcome::FalsePositive: return "false-positive";
      case Outcome::TrueNegative: return "true-negative";
      case Outcome::FalseNegative: return "false-negative";
      case Outcome::DetectedRecovered: return "detected-recovered";
    }
    return "?";
}

namespace {

Outcome
classify(bool detected, bool violated)
{
    if (detected)
        return violated ? Outcome::TruePositive : Outcome::FalsePositive;
    return violated ? Outcome::FalseNegative : Outcome::TrueNegative;
}

} // namespace

Outcome
FaultRunResult::outcome() const
{
    // A detected fault whose post-recovery ejection log matched golden
    // is the loop-closure success case, reported as its own class; a
    // recovered run is by construction not violated, so the remaining
    // four classes keep their schema-v2 meaning.
    if (recovered)
        return Outcome::DetectedRecovered;
    return classify(detected, violated);
}

Outcome
FaultRunResult::cautiousOutcome() const
{
    return classify(detectedCautious, violated);
}

Outcome
FaultRunResult::foreverOutcome() const
{
    return classify(foreverDetected, violated);
}

double
CampaignSummary::pct(std::uint64_t count) const
{
    if (runs == 0)
        return 0.0;
    return 100.0 * static_cast<double>(count) /
           static_cast<double>(runs);
}

CampaignTelemetry
computeTelemetry(const CampaignResult &result)
{
    CampaignTelemetry telemetry;
    telemetry.runsPlanned = result.shardRunsPlanned;
    telemetry.runsCompleted = result.runs.size();
    for (const FaultRunResult &run : result.runs)
        telemetry.outcomes[static_cast<unsigned>(run.outcome())] += 1;
    return telemetry;
}

CampaignSummary
CampaignResult::summarize() const
{
    CampaignSummary summary;
    summary.runs = runs.size();

    for (const FaultRunResult &run : runs) {
        summary.nocalert[static_cast<unsigned>(run.outcome())] += 1;
        summary.cautious[static_cast<unsigned>(run.cautiousOutcome())] += 1;
        summary.forever[static_cast<unsigned>(run.foreverOutcome())] += 1;

        if (run.outcome() == Outcome::TruePositive)
            summary.detectionLatency.add(run.detectionLatency);
        if (run.foreverOutcome() == Outcome::TruePositive)
            summary.foreverLatency.add(run.foreverLatency);
        if (run.detected)
            summary.simultaneous.add(run.simultaneousCheckers);

        for (core::InvariantId id : run.invariants)
            summary.perInvariant[core::invariantIndex(id)] += 1;

        if (!run.alertAtInjection) {
            ++summary.noInstantAlert;
            if (run.detected) {
                ++summary.noInstantCaughtLater;
            } else if (run.violated) {
                ++summary.noInstantViolatedUndetected;
            } else {
                ++summary.noInstantBenignUndetected;
            }
        }
    }
    return summary;
}

CampaignConfig
normalizedCampaignConfig(CampaignConfig config)
{
    // Generation must stop so runs can drain and bounded delivery is
    // decidable within the horizon. Pinned on every backend so the
    // identity hash reflects the one the run actually uses.
    config.workload.setStopCycle(config.warmup + config.observeWindow);

    // Recovery mode implies the full stack: end-to-end retransmission
    // plus quarantine-aware routing. Forcing them here (idempotently)
    // keeps the knobs consistent between a fresh campaign and one
    // resumed from a checkpoint that recorded the mutated config.
    if (config.recovery) {
        config.network.retransmit.enabled = true;
        config.network.routing = noc::RoutingAlgo::QAdaptive;
        config.runForever = false;
    }
    return config;
}

FaultCampaign::FaultCampaign(CampaignConfig config)
    : config_(normalizedCampaignConfig(std::move(config)))
{
    config_.network.validate();
    {
        const std::string error = nocalert::traffic::validateWorkloadSpec(
            config_.network, config_.workload);
        if (!error.empty())
            NOCALERT_FATAL("invalid workload spec: ", error);
    }
    if (config_.shardCount == 0 ||
        config_.shardIndex >= config_.shardCount) {
        NOCALERT_FATAL("invalid shard selector ", config_.shardIndex,
                       "/", config_.shardCount);
    }
    if (config_.sampling.enabled) {
        // The budget guard: reject a campaign the sampler could never
        // finish before simulating a single run.
        const std::string error = validateSamplingSpec(
            config_.sampling, config_.observeWindow);
        if (!error.empty())
            NOCALERT_FATAL("invalid sampling spec: ", error);
        if (config_.shardCount != 1) {
            NOCALERT_FATAL("sampled campaigns are single-shard: the "
                           "adaptive run stream has no static "
                           "partition to shard over");
        }
        if (config_.sampling.stratify == Stratify::Phase &&
            config_.workload.kind !=
                nocalert::traffic::WorkloadKind::Phased) {
            NOCALERT_FATAL("phase stratification needs a phased "
                           "workload, got kind '",
                           nocalert::traffic::workloadKindName(
                               config_.workload.kind),
                           "'");
        }
        if (config_.workload.kind ==
                nocalert::traffic::WorkloadKind::Trace &&
            config_.sampling.seedCount != 1) {
            NOCALERT_FATAL("trace workloads draw no randomness; "
                           "sampling.seedCount must be 1, got ",
                           config_.sampling.seedCount);
        }
    }
}

FaultRunResult
FaultCampaign::runSingle(const CampaignConfig &config,
                         const noc::Network &base,
                         const GoldenReference &golden,
                         const FaultSite &site,
                         noc::Cycle inject_offset)
{
    noc::Network net(base);

    core::NoCAlertEngine engine(net, /*attach_now=*/false);
    std::optional<forever::ForeverModel> fever;
    if (config.runForever)
        fever.emplace(net, config.forever, /*attach_now=*/false);

    // ForEVeR's allocation comparator sees only branchy-path routers'
    // wires. That loses nothing: the fast path commits a router only
    // when its arbiters produced clean grants (within the requests,
    // one-hot), which the comparator cannot flag, and the injected
    // router is pinned to the branchy path for the whole run.
    net.setPackedObserver([&](const noc::Router &router,
                              const noc::PackedCycleEvents &ev) {
        engine.observePacked(router, ev);
    });
    net.setRouterObserver([&](const noc::Router &router,
                              const noc::RouterWires &wires) {
        engine.observeRouter(router, wires);
        if (fever)
            fever->observeRouter(router, wires);
    });
    net.setNiObserver([&](const noc::NetworkInterface &ni,
                          const noc::NiWires &wires) {
        engine.observeNi(ni, wires);
        if (fever)
            fever->observeNi(ni, wires);
    });
    // Recovery: quarantine-and-purge on policy trigger, executed at
    // end-of-cycle so both kernels see identical mid-cycle state.
    std::optional<recovery::RecoveryOrchestrator> orchestrator;
    if (config.recovery)
        orchestrator.emplace(net, engine);

    if (fever || orchestrator) {
        net.setCycleObserver([&](const noc::Network &n) {
            if (fever)
                fever->onCycleEnd(n);
            if (orchestrator)
                orchestrator->onCycleEnd(n.cycle());
        });
    }

    // Retransmission counters accumulate from network birth; snapshot
    // the warm baseline so the result reports this run's deltas only.
    struct NiTotals
    {
        std::uint64_t retransmits = 0;
        std::uint64_t duplicates = 0;
        std::uint64_t abandoned = 0;
    };
    const auto niTotals = [](const noc::Network &n) {
        NiTotals totals;
        for (noc::NodeId node = 0; node < n.config().numNodes(); ++node) {
            const noc::NetworkInterface &ni = n.ni(node);
            totals.retransmits += ni.retransmits();
            totals.duplicates += ni.duplicatesSuppressed();
            totals.abandoned += ni.packetsAbandoned();
        }
        return totals;
    };
    const NiTotals warm = config.recovery ? niTotals(base) : NiTotals{};

    FaultRunResult result;
    result.site = site;
    // Sampled-mode cycle jitter: the fault arms for a cycle inside
    // the observation window; the network is fault-free until then.
    result.injectCycle = net.cycle() + inject_offset;

    FaultInjector injector;
    injector.arm({site, result.injectCycle, config.kind});
    injector.attach(net);

    net.run(config.observeWindow);
    result.drained = net.drain(config.drainLimit);
    if (!result.drained && config.recovery) {
        // A quarantined router with a permanent wire fault churns
        // forever and full quiescence is unreachable; what bounded
        // delivery needs is that the end-to-end protocol settled:
        // every NI has drained its queues and resolved (ACKed or
        // abandoned) every pending packet. Abandoned packets still
        // surface as FlitLost violations in the golden comparison.
        result.drained = true;
        for (noc::NodeId node = 0; node < config.network.numNodes();
             ++node) {
            if (!net.ni(node).idle()) {
                result.drained = false;
                break;
            }
        }
    }

    // ForEVeR's counter alarms fire at epoch boundaries; give it one
    // full epoch past quiescence so a stuck counter is evaluated even
    // when the network otherwise went idle.
    if (fever)
        net.run(config.forever.epochLength + 2);

    const GoldenComparison comparison =
        golden.compare(net.collectEjections(), result.drained);
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
        // ForEVeR attaches at the warm snapshot, so with sampled cycle
        // jitter an epoch check can fire before the injection: that
        // alarm was raised on the fault-free network and says nothing
        // about this fault.
        for (const forever::ForeverAlert &alert : fever->alerts()) {
            const noc::Cycle latency = alert.cycle - result.injectCycle;
            if (latency >= 0 && (!result.foreverDetected ||
                                 latency < result.foreverLatency)) {
                result.foreverDetected = true;
                result.foreverLatency = latency;
            }
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
        result.duplicatesSuppressed =
            after.duplicates - warm.duplicates;
        result.packetsAbandoned = after.abandoned - warm.abandoned;

        // Recovered = the loop actually closed: the fault was seen,
        // recovery machinery engaged (action or retransmission), and
        // the delivered traffic still matched golden.
        result.recovered =
            result.detected && !result.violated && result.drained &&
            (result.recoveryTriggered || result.retransmits > 0);
    }

    return result;
}

namespace {

/** A warmed-up snapshot plus its fault-free golden reference. */
struct PreparedReference
{
    noc::Network base;
    GoldenReference golden;
};

/**
 * Build the warm snapshot and golden reference for @p config (with
 * @p traffic_seed overriding the configured one — sampled campaigns
 * prepare one reference per sampled traffic seed). Shared by the
 * exhaustive and sampled planners so both pay the warmup exactly
 * once per seed.
 */
PreparedReference
prepareReference(const CampaignConfig &config,
                 std::uint64_t traffic_seed)
{
    nocalert::traffic::WorkloadSpec workload = config.workload;
    workload.setSeed(traffic_seed);

    noc::Network base(config.network, workload);
    base.setKernelMode(config.denseKernel ? noc::KernelMode::Dense
                                          : noc::KernelMode::Bitmask);
    {
        // Any assertion during warmup would poison every
        // classification; the engine enforces the zero-false-alarm
        // property of the clean network.
        core::NoCAlertEngine warm_guard(base);
        base.run(config.warmup);
        NOCALERT_ASSERT(warm_guard.log().empty(),
                        "checker asserted during fault-free warmup");
        base.setRouterObserver(nullptr);
        base.setNiObserver(nullptr);
        base.setPackedObserver(nullptr);
    }

    noc::Network golden(base);
    {
        core::NoCAlertEngine golden_guard(golden);
        golden.run(config.observeWindow);
        const bool drained = golden.drain(config.drainLimit);
        if (!drained) {
            NOCALERT_FATAL("golden run failed to drain within ",
                           config.drainLimit,
                           " cycles; lower the injection rate");
        }
        NOCALERT_ASSERT(golden_guard.log().empty(),
                        "checker asserted during fault-free golden run");
    }
    return PreparedReference{std::move(base),
                             GoldenReference(golden.collectEjections())};
}

/** Load this campaign's checkpoint document, if any, after validating
 *  identity and shard selector; fatal on any mismatch (a checkpoint
 *  must never silently corrupt a campaign). */
std::optional<CampaignResult>
loadCheckpointDocument(const CampaignConfig &config)
{
    if (config.checkpointPath.empty() ||
        !std::filesystem::exists(config.checkpointPath))
        return std::nullopt;

    std::string error;
    auto checkpoint = loadCampaignResult(config.checkpointPath, &error);
    if (!checkpoint)
        NOCALERT_FATAL("cannot resume from checkpoint: ", error);
    if (campaignIdentityJson(checkpoint->config).dump() !=
        campaignIdentityJson(config).dump()) {
        NOCALERT_FATAL("checkpoint '", config.checkpointPath,
                       "' belongs to a different campaign");
    }
    if (checkpoint->config.shardIndex != config.shardIndex ||
        checkpoint->config.shardCount != config.shardCount) {
        NOCALERT_FATAL("checkpoint '", config.checkpointPath,
                       "' belongs to shard ",
                       checkpoint->config.shardIndex, "/",
                       checkpoint->config.shardCount, ", not ",
                       config.shardIndex, "/", config.shardCount);
    }
    return checkpoint;
}

} // namespace

CampaignResult
FaultCampaign::run(const Progress &progress, const RunOptions &options)
{
    CampaignResult result;
    result.config = config_;

    // ---- Plan ----
    // Both planners run over one site list. The exhaustive sweep is a
    // single batch: the sampled indices congruent to shardIndex, so N
    // shards partition exactly an unsharded run's work. The sampled
    // planner draws from the same list, batch by batch, until it stops.
    std::vector<FaultSite> sites =
        sampledPopulation(config_, result.totalSitesEnumerated);
    std::optional<SampledPlanner> sampler;
    std::vector<SampledDraw> sweep;
    if (config_.sampling.enabled) {
        sampler.emplace(config_, std::move(sites));
    } else {
        for (std::size_t i = config_.shardIndex; i < sites.size();
             i += config_.shardCount)
            sweep.push_back(SampledDraw{i, 0, sites[i], 0, 0});
    }

    // ---- References: one warm snapshot + golden per traffic seed ----
    const unsigned seeds = sampler ? config_.sampling.seedCount : 1;
    std::vector<PreparedReference> prepared;
    prepared.reserve(seeds);
    for (unsigned k = 0; k < seeds; ++k)
        prepared.push_back(
            prepareReference(config_, config_.workload.seed() + k));
    result.goldenFlits = prepared.front().golden.flitCount();

    // ---- Resume ----
    // Resume is replay: the plan is regenerated and each checkpointed
    // run stands in for the draw at its index once it is shown to be
    // that draw (validated batch by batch below).
    std::map<std::size_t, FaultRunResult> restored;
    if (auto checkpoint = loadCheckpointDocument(config_)) {
        for (FaultRunResult &run : checkpoint->runs)
            restored.emplace(run.sampleIndex, std::move(run));
    }

    // Committed runs by sampleIndex: replayed and freshly run alike. A
    // checkpointed run the loop stops short of is not committed, so no
    // snapshot holds a run its plan has not reached.
    std::map<std::size_t, FaultRunResult> committed;
    std::size_t planned = 0;
    bool finished = false;
    auto snapshot = [&]() {
        CampaignResult partial = result;
        partial.shardRunsPlanned = planned;
        partial.samplerDone = sampler && finished;
        partial.runs.reserve(committed.size());
        for (const auto &[index, run] : committed)
            partial.runs.push_back(run);
        return partial;
    };
    auto writeCheckpoint = [&](const CampaignResult &partial) {
        std::string error;
        if (!saveCampaignResult(partial, config_.checkpointPath, &error))
            NOCALERT_FATAL("checkpoint write failed: ", error);
    };

    std::size_t fresh = 0;
    std::size_t since_checkpoint = 0;
    const unsigned checkpoint_every =
        std::max(1u, config_.checkpointEvery);

    // Neither planner reads a task's ctx.rng (every coordinate of a run
    // is fixed when its draw is planned), and stealSeed only picks
    // which idle worker steals from which, so no seed here can reach
    // an artifact.
    exec::CampaignExecutor executor(exec::ExecConfig{
        config_.jobs, config_.workload.seed(), config_.sampleSeed});
    exec::TelemetryHub hub(0, executor.jobs(),
                           {"tp", "fp", "tn", "fn", "rec"});

    while (true) {
        // Stop before planning a batch that could not execute anyway:
        // the run limit is spent and every checkpointed run has been
        // replayed.
        if (options.maxNewRuns != 0 && fresh >= options.maxNewRuns &&
            restored.empty())
            break;

        std::vector<SampledDraw> batch =
            sampler ? sampler->planBatch() : std::exchange(sweep, {});
        planned += batch.size();
        hub.setRunsPlanned(planned);

        // Replay first: a checkpointed run must be the very draw the
        // plan places at its index, and feeds the sampler exactly as it
        // did originally; the remainder is fresh work.
        std::vector<SampledDraw> todo;
        for (SampledDraw &draw : batch) {
            auto it = restored.find(draw.drawIndex);
            if (it == restored.end()) {
                todo.push_back(std::move(draw));
                continue;
            }
            const FaultRunResult &run = it->second;
            if (!(run.site == draw.site) ||
                run.stratum != draw.stratum ||
                run.seedIndex != draw.seedIndex) {
                NOCALERT_FATAL("checkpoint '", config_.checkpointPath,
                               "' does not match this campaign's plan "
                               "at run ", draw.drawIndex);
            }
            hub.recordRun(static_cast<unsigned>(run.outcome()));
            if (sampler)
                sampler->record(run);
            committed.insert(restored.extract(it));
        }
        // Once no batch can follow (the exhaustive sweep is one batch),
        // a checkpointed run still unmatched belongs to another shard
        // or campaign.
        if ((!sampler || batch.empty()) && !restored.empty()) {
            NOCALERT_FATAL("checkpoint '", config_.checkpointPath,
                           "' holds run ", restored.begin()->first,
                           ", which this campaign never plans");
        }
        if (batch.empty()) {
            finished = true;
            break;
        }

        bool limited = false;
        if (options.maxNewRuns != 0 &&
            todo.size() > options.maxNewRuns - fresh) {
            todo.resize(options.maxNewRuns - fresh);
            limited = true;
        }

        bool cancelled = false;
        try {
            cancelled = !executor.run<FaultRunResult>(
                todo.size(),
                [&](exec::TaskContext &ctx) {
                    const SampledDraw &draw = todo[ctx.index];
                    const PreparedReference &ref =
                        prepared[draw.seedIndex];
                    FaultRunResult run =
                        runSingle(config_, ref.base, ref.golden,
                                  draw.site, draw.cycleOffset);
                    run.sampleIndex = draw.drawIndex;
                    run.stratum = draw.stratum;
                    run.seedIndex = draw.seedIndex;
                    return run;
                },
                [&](std::size_t, FaultRunResult &&run) {
                    // Ordered commit: the reducer delivers runs in
                    // increasing todo position (hence sampleIndex),
                    // serialized under its lock, so every checkpoint
                    // flush, progress and telemetry evolve identically
                    // for any jobs count. The sampler sees this
                    // batch's outcomes only as aggregates at the next
                    // planBatch, so commit order cannot steer it.
                    hub.recordRun(static_cast<unsigned>(run.outcome()));
                    if (sampler)
                        sampler->record(run);
                    committed.emplace(run.sampleIndex, std::move(run));
                    ++fresh;
                    if (!config_.checkpointPath.empty() &&
                        ++since_checkpoint >= checkpoint_every) {
                        since_checkpoint = 0;
                        writeCheckpoint(snapshot());
                    }
                    if (progress)
                        progress(committed.size(), planned);
                    if (options.telemetry)
                        options.telemetry(hub.snapshot());
                },
                options.cancel, &hub);
        } catch (const exec::TaskError &error) {
            // One failing run aborts the campaign, but cleanly: flush
            // the committed runs so nothing is lost, then name the site.
            if (!config_.checkpointPath.empty())
                writeCheckpoint(snapshot());
            const SampledDraw &draw = todo[error.taskIndex()];
            NOCALERT_FATAL("campaign run ", draw.drawIndex, " (",
                           draw.site.describe(),
                           ") failed: ", error.what());
        }
        if (cancelled || limited)
            break;
    }

    result = snapshot();
    if (!config_.checkpointPath.empty())
        writeCheckpoint(result);
    return result;
}

} // namespace nocalert::fault
