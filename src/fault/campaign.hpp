/**
 * @file
 * The fault-injection campaign (paper Section 5.3): run a fault-free
 * golden reference, then one fault-injected run per sampled site, and
 * classify every run into True/False Positive/Negative for NoCAlert
 * (plain and Cautious) and for the ForEVeR baseline.
 *
 * A warmed-up network is snapshotted once and copied per run, so the
 * cost of reaching steady state (the paper's cycle-32K instant) is
 * paid a single time.
 */

#ifndef NOCALERT_FAULT_CAMPAIGN_HPP
#define NOCALERT_FAULT_CAMPAIGN_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/invariant.hpp"
#include "exec/cancel.hpp"
#include "exec/telemetry.hpp"
#include "fault/golden.hpp"
#include "fault/injector.hpp"
#include "fault/site.hpp"
#include "forever/forever.hpp"
#include "noc/network.hpp"
#include "stats/binomial.hpp"
#include "traffic/workload.hpp"
#include "util/histogram.hpp"

namespace nocalert::fault {

/** Detection-outcome classification (paper Section 5.4). */
enum class Outcome : std::uint8_t {
    TruePositive,  ///< Detected, and correctness was really violated.
    FalsePositive, ///< Detected, but the fault proved benign.
    TrueNegative,  ///< Not detected, and the fault proved benign.
    FalseNegative, ///< Not detected, but correctness was violated.
    DetectedRecovered, ///< Detected, recovery engaged, and the
                       ///< post-recovery ejection log matches golden.
};

/** Number of distinct Outcome values. */
inline constexpr std::size_t kNumOutcomes = 5;

/** Name of an outcome. */
const char *outcomeName(Outcome outcome);

/**
 * Sentinel latency meaning "this detector never fired". Kept at -1
 * (Cycle is signed) so serialized results and CSV exports stay
 * readable; compare against this constant rather than a literal.
 */
inline constexpr noc::Cycle kNoDetection = -1;

/** How the sampled planner partitions the draw space into strata. */
enum class Stratify : std::uint8_t {
    None,        ///< One pooled stratum (plain binomial sampling).
    SignalClass, ///< One stratum per fault-signal class.
    Phase,       ///< One stratum per phase segment the injection-cycle
                 ///< jitter window reaches (phased workloads only).
};

/** Name of a stratification mode ("none" / "signal-class" / "phase"). */
const char *stratifyName(Stratify mode);

/** Inverse of stratifyName (nullopt for unknown names). */
std::optional<Stratify> stratifyFromName(std::string_view name);

/**
 * Statistical sampling mode (schema v5): instead of running every
 * site of the campaign's site list exactly once, draw (site,
 * injection-cycle offset, traffic seed) tuples with replacement,
 * stratified, until every stratum's confidence interval is tight
 * enough or the run budget is exhausted. Every field is campaign
 * identity: it determines which runs exist.
 */
struct SamplingSpec
{
    /** Master switch; false leaves the exhaustive planner in charge. */
    bool enabled = false;

    /** Stratum partition of the draw space. */
    Stratify stratify = Stratify::SignalClass;

    /** Interval construction for stopping and the primary report. */
    stats::IntervalMethod method = stats::IntervalMethod::Wilson;

    /** Confidence level of all reported intervals. */
    double confidence = 0.95;

    /**
     * Adaptive stopping target: a stratum halts once its detection
     * interval half-width is <= this. 0 disables width-based stopping
     * (fixed-budget sampling; maxRuns must then be set).
     */
    double ciHalfWidth = 0.05;

    /** Hard cap on total draws (0 = unbounded), honored exactly. */
    std::uint64_t maxRuns = 0;

    /** Draws planned per batch (the determinism quantum). */
    unsigned batchSize = 64;

    /** Minimum draws per stratum before the stopping rule may halt it. */
    unsigned minPerStratum = 8;

    /**
     * Injection-cycle jitter: each draw injects at warmup + U[0,
     * cycleJitter]. Must stay well under observeWindow so every run
     * keeps a meaningful post-injection observation window.
     */
    noc::Cycle cycleJitter = 0;

    /**
     * Number of distinct workload seeds sampled (seed k = the
     * workload's seed + k, each with its own warm snapshot and golden
     * reference). Trace workloads draw nothing, so they admit only
     * seedCount == 1.
     */
    unsigned seedCount = 1;

    /** Splitting-style budget boost toward rare-outcome strata. */
    bool reallocate = true;

    /** Seed of the per-draw materialization streams. */
    std::uint64_t samplerSeed = 1;
};

/**
 * Why @p spec cannot be run (empty = valid). The budget guard lives
 * here: a stopping rule that can never halt combined with an
 * unbounded run budget is rejected, as are degenerate knob values.
 * @p observe_window bounds the admissible cycleJitter.
 */
std::string validateSamplingSpec(const SamplingSpec &spec,
                                 noc::Cycle observe_window);

/** Campaign parameters. */
struct CampaignConfig
{
    noc::NetworkConfig network;

    /**
     * What drives the network: the synthetic generator, a phase
     * program, or a trace replay (traffic::WorkloadSpec). Campaign
     * identity — every workload field determines which packets exist.
     * Legacy code paths reach the synthetic backend via
     * `workload.synthetic`.
     */
    nocalert::traffic::WorkloadSpec workload;

    /** Cycles before injection (0 = paper's "cycle 0" empty network;
     *  thousands = the warmed-up "cycle 32K" instant). */
    noc::Cycle warmup = 0;

    /** Cycles of live traffic observed after the injection. */
    noc::Cycle observeWindow = 4000;

    /** Extra cycles allowed for the network to drain afterwards. */
    noc::Cycle drainLimit = 12000;

    /** Temporal fault behaviour. */
    FaultKind kind = FaultKind::Transient;

    /** Stratified site-sample size (0 = exhaustive sweep). */
    unsigned maxSites = 400;

    /**
     * Restrict the fault surface to combinational wires (module
     * inputs/outputs), excluding the architectural-register classes.
     * Approximates the paper's 205-locations-per-router accounting,
     * whose population is dominated by module-I/O signals.
     */
    bool wireSitesOnly = false;

    /** Seed for site sampling. */
    std::uint64_t sampleSeed = 7;

    /** Also run the ForEVeR baseline on every run. */
    bool runForever = true;
    forever::ForeverConfig forever;

    /**
     * Recovery mode: enable end-to-end retransmission at the NIs,
     * switch routing to the quarantine-aware adaptive algorithm, and
     * attach the recovery orchestrator (quarantine + purge on
     * trigger) to every run — golden included, so the reference
     * experiences the identical (fault-free) protocol. Runs whose
     * post-recovery ejection log matches golden classify as
     * Outcome::DetectedRecovered. Disables the ForEVeR baseline (its
     * end-to-end flit accounting does not model retransmission).
     * Part of the campaign identity.
     */
    bool recovery = false;

    /**
     * Escape hatch: run every simulation on the dense kernel instead
     * of the bitmask kernel. Results are bit-identical either way
     * (the kernel-equivalence tests assert it); use this to
     * cross-check a suspect campaign or to time the dense baseline.
     */
    bool denseKernel = false;

    /**
     * Statistical sampling mode (schema v5). When enabled, the
     * sampled planner replaces the exhaustive one: runs are drawn
     * with replacement from the same deterministic site list the
     * exhaustive campaign would sweep, batch by batch, with adaptive
     * stopping. Part of the campaign identity. Sampled campaigns are
     * single-shard (the dynamic run stream has no static partition);
     * shardCount > 1 is rejected.
     */
    SamplingSpec sampling;

    /**
     * Worker jobs for the in-process execution engine (1 = serial,
     * 0 = hardware concurrency). Execution-only: campaign *results*
     * are byte-identical for every value (the executor reduces run
     * results in sampled order), so this is excluded from both the
     * campaign identity and the serialized artifact.
     */
    unsigned jobs = 1;

    // ---- Sharding (distributed / CI campaigns) ----

    /**
     * Shard selector: of the deterministically sampled site list,
     * this campaign runs sites whose sample index i satisfies
     * i % shardCount == shardIndex. Selection depends only on the
     * sampled order (never on threads), so N shards partition exactly
     * the runs a single unsharded process would execute.
     */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;

    /**
     * When non-empty, a checkpoint (the partial CampaignResult as
     * JSON) is written here every checkpointEvery completed runs and
     * once more at the end. An existing checkpoint for the same
     * campaign is loaded on start and its completed runs are skipped,
     * so a killed shard resumes where it left off.
     */
    std::string checkpointPath;
    unsigned checkpointEvery = 25;
};

/** Classification record of one fault-injected run. */
struct FaultRunResult
{
    /** Position of the site in the campaign's sampled order; global
     *  across shards, so merged shard results interleave back into
     *  exactly the unsharded run order. */
    std::size_t sampleIndex = 0;

    FaultSite site;
    noc::Cycle injectCycle = 0;

    // ---- Sampled-mode draw coordinates (schema v5; zero for
    // ---- exhaustive runs). sampleIndex doubles as the draw index.
    std::uint32_t stratum = 0;   ///< Planner stratum of this draw.
    std::uint32_t seedIndex = 0; ///< Traffic-seed offset of this draw.

    // ---- Ground truth from the golden reference ----
    bool violated = false;
    std::uint8_t violatedConditions = 0;
    bool drained = true;

    // ---- NoCAlert ----
    bool detected = false;
    noc::Cycle detectionLatency = kNoDetection;
    bool detectedCautious = false;
    noc::Cycle cautiousLatency = kNoDetection;
    bool alertAtInjection = false;
    unsigned simultaneousCheckers = 0;
    std::vector<core::InvariantId> invariants;

    // ---- ForEVeR ----
    bool foreverDetected = false;
    noc::Cycle foreverLatency = kNoDetection;

    // ---- Recovery (all zero unless CampaignConfig::recovery) ----
    bool recovered = false;       ///< Detected, clean log, recovery acted.
    bool recoveryTriggered = false; ///< The orchestrator acted at all.
    noc::Cycle recoveryCycle = kNoDetection; ///< First action cycle.
    std::uint32_t recoveryActions = 0;   ///< Quarantine/purge actions.
    std::uint32_t quarantinedPorts = 0;  ///< Ports quarantined.
    std::uint64_t purgedFlits = 0;       ///< Flits purged network-wide.
    std::uint64_t retransmits = 0;       ///< Packet retransmissions.
    std::uint64_t duplicatesSuppressed = 0; ///< Duplicate deliveries.
    std::uint64_t packetsAbandoned = 0;  ///< Gave up after maxRetries.

    Outcome outcome() const;
    Outcome cautiousOutcome() const;
    Outcome foreverOutcome() const;
};

/** Aggregates over a finished campaign. */
struct CampaignSummary
{
    std::uint64_t runs = 0;

    std::array<std::uint64_t, kNumOutcomes> nocalert = {}; ///< By Outcome.
    std::array<std::uint64_t, kNumOutcomes> cautious = {};
    std::array<std::uint64_t, kNumOutcomes> forever = {};

    Histogram detectionLatency;  ///< NoCAlert, true positives only.
    Histogram foreverLatency;    ///< ForEVeR, true positives only.
    Histogram simultaneous;      ///< Checkers asserted at first detection.

    /** Fault runs in which invariant i participated (index 1..32). */
    std::array<std::uint64_t, core::kNumInvariants + 1> perInvariant = {};

    // ---- Observation 5 partition (faults with no same-cycle alert) ----
    std::uint64_t noInstantAlert = 0;
    std::uint64_t noInstantCaughtLater = 0;
    std::uint64_t noInstantBenignUndetected = 0;
    std::uint64_t noInstantViolatedUndetected = 0; ///< Must stay zero.

    /** Percentage helper: count / runs * 100. */
    double pct(std::uint64_t count) const;
};

/**
 * Deterministic telemetry projection of a (possibly partial) campaign:
 * the execution-independent counters serialized as the `telemetry`
 * block of campaign JSON (schema v4). Everything here is a pure
 * function of the committed runs, so the block is byte-identical for
 * every `jobs` value; wall-clock rates (runs/s, ETA, utilization) are
 * live-channel only (exec::TelemetrySnapshot) and never serialized.
 */
struct CampaignTelemetry
{
    std::uint64_t runsPlanned = 0;   ///< Shard's planned run count.
    std::uint64_t runsCompleted = 0; ///< Committed runs.
    std::array<std::uint64_t, kNumOutcomes> outcomes = {}; ///< By Outcome.
};

/** Full campaign (or single-shard) output. */
struct CampaignResult
{
    CampaignConfig config;
    std::size_t totalSitesEnumerated = 0;
    std::size_t goldenFlits = 0;

    /** Runs this shard is responsible for (== runs.size() once the
     *  shard has finished; larger while a checkpoint is partial). */
    std::size_t shardRunsPlanned = 0;

    /** Completed runs in increasing sampleIndex order. */
    std::vector<FaultRunResult> runs;

    /**
     * Sampled mode only: the sampler reached a stopping decision
     * (every stratum halted or the budget ran out) and every planned
     * draw committed. Needed because a sampled campaign interrupted
     * exactly at a batch boundary has runs.size() ==
     * shardRunsPlanned without being finished.
     */
    bool samplerDone = false;

    /** True iff every planned run of this shard has completed. */
    bool complete() const
    {
        if (config.sampling.enabled)
            return samplerDone && runs.size() == shardRunsPlanned;
        return runs.size() == shardRunsPlanned;
    }

    CampaignSummary summarize() const;
};

/** Compute the deterministic telemetry block for @p result. */
CampaignTelemetry computeTelemetry(const CampaignResult &result);

/**
 * The normal form a config reaches inside FaultCampaign's constructor
 * before any simulation: the traffic stop cycle is pinned to the
 * observation horizon and recovery mode forces its implied knobs
 * (retransmission on, quarantine-aware routing, ForEVeR off).
 * Idempotent, and applied without the constructor's validation — so a
 * service can compute the artifact identity of an untrusted spec (the
 * serialized config block records the *normalized* form) before
 * committing to run it.
 */
CampaignConfig normalizedCampaignConfig(CampaignConfig config);

/** Campaign driver. */
class FaultCampaign
{
  public:
    /** Per-run progress callback (completed runs, total runs). */
    using Progress = std::function<void(std::size_t, std::size_t)>;

    /** Knobs of one run() invocation (not part of campaign identity). */
    struct RunOptions
    {
        /**
         * Stop after this many *new* runs (0 = no limit), leaving the
         * checkpoint resumable — a deterministic stand-in for a killed
         * process in tests and CI.
         */
        std::size_t maxNewRuns = 0;

        /**
         * Cooperative cancellation (e.g. SIGINT). When it fires, the
         * campaign stops dispatching, flushes a valid checkpoint
         * holding the contiguous committed prefix, and returns the
         * partial result (complete() == false) — resumable as if the
         * process had been stopped between runs.
         */
        exec::CancelToken *cancel = nullptr;

        /**
         * Live telemetry sink, invoked after every committed run with
         * a fresh snapshot (runs/s, ETA, outcome counters, worker
         * utilization). Called under the campaign's commit lock —
         * keep it cheap; rendering cadence is the caller's business.
         */
        std::function<void(const exec::TelemetrySnapshot &)> telemetry;
    };

    explicit FaultCampaign(CampaignConfig config);

    /** Execute this shard of the campaign (resuming any checkpoint). */
    CampaignResult run(const Progress &progress = nullptr)
    {
        return run(progress, RunOptions{});
    }
    CampaignResult run(const Progress &progress,
                       const RunOptions &options);

    /**
     * Execute a single fault-injected run against a prepared warm
     * snapshot and golden reference (building block for tests).
     * @p inject_offset delays the injection that many cycles past the
     * snapshot instant (sampled-mode cycle jitter; 0 = inject at the
     * snapshot cycle, the exhaustive behaviour).
     */
    static FaultRunResult runSingle(const CampaignConfig &config,
                                    const noc::Network &base,
                                    const GoldenReference &golden,
                                    const FaultSite &site,
                                    noc::Cycle inject_offset = 0);

  private:
    CampaignResult runSampled(const Progress &progress,
                              const RunOptions &options);

    CampaignConfig config_;
};

} // namespace nocalert::fault

#endif // NOCALERT_FAULT_CAMPAIGN_HPP
