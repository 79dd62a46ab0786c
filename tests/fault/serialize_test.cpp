#include "fault/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace nocalert::fault {
namespace {

/** A result whose every field differs from its default. */
CampaignResult
syntheticResult()
{
    CampaignResult result;
    CampaignConfig &config = result.config;
    config.network.width = 3;
    config.network.height = 5;
    config.network.routing = noc::RoutingAlgo::WestFirst;
    config.network.router.numVcs = 6;
    config.network.router.bufferDepth = 9;
    config.network.router.atomicBuffers = false;
    config.network.router.speculative = true;
    config.network.router.flitWidthBits = 64;
    config.network.router.extendedChecks = true;
    config.network.router.classes = {{"req", 2}, {"resp", 7}};
    config.network.retransmit.enabled = true;
    config.network.retransmit.ackTimeout = 450;
    config.network.retransmit.maxRetries = 5;
    config.network.retransmit.backoffCap = 8;
    config.workload.synthetic.pattern = noc::TrafficPattern::Hotspot;
    config.workload.synthetic.injectionRate = 0.031;
    config.workload.synthetic.seed = 99;
    config.workload.synthetic.stopCycle = 4321;
    config.workload.synthetic.classWeights = {0.25, 0.75};
    config.workload.synthetic.hotspot.node = 11;
    config.workload.synthetic.hotspot.fraction = 0.4;
    config.warmup = 777;
    config.observeWindow = 2500;
    config.drainLimit = 9000;
    config.kind = FaultKind::Intermittent;
    config.maxSites = 55;
    config.wireSitesOnly = true;
    config.sampleSeed = 31;
    config.runForever = false;
    config.recovery = true;
    config.forever.epochLength = 640;
    config.forever.hopLatency = 2;
    config.forever.useAllocationComparator = false;
    config.forever.useEndToEnd = false;
    // Execution knobs: set to non-defaults to prove they never reach
    // the serialized artifact (schema v4 drops them).
    config.jobs = 3;
    config.shardIndex = 1;
    config.shardCount = 4;
    config.checkpointPath = "shards/s1.json";
    config.checkpointEvery = 7;

    result.totalSitesEnumerated = 4242;
    result.goldenFlits = 1234;
    result.shardRunsPlanned = 3;

    FaultRunResult detected;
    detected.sampleIndex = 1;
    detected.site = {7, SignalClass::StCredits,
                     noc::portIndex(noc::Port::West), 2, 3};
    detected.injectCycle = 777;
    detected.violated = true;
    detected.violatedConditions = 5;
    detected.drained = false;
    detected.detected = true;
    detected.detectionLatency = 0;
    detected.detectedCautious = true;
    detected.cautiousLatency = 12;
    detected.alertAtInjection = true;
    detected.simultaneousCheckers = 4;
    detected.invariants = {core::InvariantId::GrantWithoutRequest,
                           core::InvariantId::EjectionAtWrongDestination};
    detected.foreverDetected = true;
    detected.foreverLatency = 1400;
    detected.recovered = true;
    detected.recoveryTriggered = true;
    detected.recoveryCycle = 801;
    detected.recoveryActions = 2;
    detected.quarantinedPorts = 3;
    detected.purgedFlits = 17;
    detected.retransmits = 4;
    detected.duplicatesSuppressed = 1;
    detected.packetsAbandoned = 1;
    result.runs.push_back(detected);

    FaultRunResult benign;
    benign.sampleIndex = 5;
    benign.site = {0, SignalClass::Sa1Req,
                   noc::portIndex(noc::Port::Local), 0, 1};
    benign.injectCycle = 778;
    result.runs.push_back(benign);

    return result;
}

void
expectRunsEqual(const FaultRunResult &a, const FaultRunResult &b)
{
    EXPECT_EQ(a.sampleIndex, b.sampleIndex);
    EXPECT_EQ(a.site, b.site);
    EXPECT_EQ(a.injectCycle, b.injectCycle);
    EXPECT_EQ(a.violated, b.violated);
    EXPECT_EQ(a.violatedConditions, b.violatedConditions);
    EXPECT_EQ(a.drained, b.drained);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.detectionLatency, b.detectionLatency);
    EXPECT_EQ(a.detectedCautious, b.detectedCautious);
    EXPECT_EQ(a.cautiousLatency, b.cautiousLatency);
    EXPECT_EQ(a.alertAtInjection, b.alertAtInjection);
    EXPECT_EQ(a.simultaneousCheckers, b.simultaneousCheckers);
    EXPECT_EQ(a.invariants, b.invariants);
    EXPECT_EQ(a.foreverDetected, b.foreverDetected);
    EXPECT_EQ(a.foreverLatency, b.foreverLatency);
    EXPECT_EQ(a.recovered, b.recovered);
    EXPECT_EQ(a.recoveryTriggered, b.recoveryTriggered);
    EXPECT_EQ(a.recoveryCycle, b.recoveryCycle);
    EXPECT_EQ(a.recoveryActions, b.recoveryActions);
    EXPECT_EQ(a.quarantinedPorts, b.quarantinedPorts);
    EXPECT_EQ(a.purgedFlits, b.purgedFlits);
    EXPECT_EQ(a.retransmits, b.retransmits);
    EXPECT_EQ(a.duplicatesSuppressed, b.duplicatesSuppressed);
    EXPECT_EQ(a.packetsAbandoned, b.packetsAbandoned);
}

TEST(Serialize, RoundTripPreservesEveryField)
{
    const CampaignResult original = syntheticResult();
    const std::string text = writeCampaignJson(original);

    std::string error;
    const auto restored = readCampaignJson(text, &error);
    ASSERT_TRUE(restored.has_value()) << error;

    const CampaignConfig &a = original.config;
    const CampaignConfig &b = restored->config;
    EXPECT_EQ(a.network.width, b.network.width);
    EXPECT_EQ(a.network.height, b.network.height);
    EXPECT_EQ(a.network.routing, b.network.routing);
    EXPECT_EQ(a.network.router.numVcs, b.network.router.numVcs);
    EXPECT_EQ(a.network.router.bufferDepth, b.network.router.bufferDepth);
    EXPECT_EQ(a.network.router.atomicBuffers,
              b.network.router.atomicBuffers);
    EXPECT_EQ(a.network.router.speculative, b.network.router.speculative);
    EXPECT_EQ(a.network.router.flitWidthBits,
              b.network.router.flitWidthBits);
    EXPECT_EQ(a.network.router.extendedChecks,
              b.network.router.extendedChecks);
    ASSERT_EQ(a.network.router.classes.size(),
              b.network.router.classes.size());
    for (std::size_t i = 0; i < a.network.router.classes.size(); ++i) {
        EXPECT_EQ(a.network.router.classes[i].name,
                  b.network.router.classes[i].name);
        EXPECT_EQ(a.network.router.classes[i].packetLength,
                  b.network.router.classes[i].packetLength);
    }
    EXPECT_EQ(a.network.retransmit.enabled, b.network.retransmit.enabled);
    EXPECT_EQ(a.network.retransmit.ackTimeout,
              b.network.retransmit.ackTimeout);
    EXPECT_EQ(a.network.retransmit.maxRetries,
              b.network.retransmit.maxRetries);
    EXPECT_EQ(a.network.retransmit.backoffCap,
              b.network.retransmit.backoffCap);
    EXPECT_EQ(a.workload.synthetic.pattern, b.workload.synthetic.pattern);
    EXPECT_EQ(a.workload.synthetic.injectionRate, b.workload.synthetic.injectionRate);
    EXPECT_EQ(a.workload.synthetic.seed, b.workload.synthetic.seed);
    EXPECT_EQ(a.workload.synthetic.stopCycle, b.workload.synthetic.stopCycle);
    EXPECT_EQ(a.workload.synthetic.classWeights, b.workload.synthetic.classWeights);
    EXPECT_EQ(a.workload.synthetic.hotspot.node, b.workload.synthetic.hotspot.node);
    EXPECT_EQ(a.workload.synthetic.hotspot.fraction, b.workload.synthetic.hotspot.fraction);
    EXPECT_EQ(a.warmup, b.warmup);
    EXPECT_EQ(a.observeWindow, b.observeWindow);
    EXPECT_EQ(a.drainLimit, b.drainLimit);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.maxSites, b.maxSites);
    EXPECT_EQ(a.wireSitesOnly, b.wireSitesOnly);
    EXPECT_EQ(a.sampleSeed, b.sampleSeed);
    EXPECT_EQ(a.runForever, b.runForever);
    EXPECT_EQ(a.recovery, b.recovery);
    EXPECT_EQ(a.forever.epochLength, b.forever.epochLength);
    EXPECT_EQ(a.forever.hopLatency, b.forever.hopLatency);
    EXPECT_EQ(a.forever.useAllocationComparator,
              b.forever.useAllocationComparator);
    EXPECT_EQ(a.forever.useEndToEnd, b.forever.useEndToEnd);
    EXPECT_EQ(a.shardIndex, b.shardIndex);
    EXPECT_EQ(a.shardCount, b.shardCount);
    // Pure execution knobs are not serialized (schema v4): a restored
    // config carries their defaults, whatever the writer used.
    EXPECT_EQ(b.jobs, 1u);
    EXPECT_TRUE(b.checkpointPath.empty());
    EXPECT_EQ(b.checkpointEvery, 25u);

    EXPECT_EQ(original.totalSitesEnumerated,
              restored->totalSitesEnumerated);
    EXPECT_EQ(original.goldenFlits, restored->goldenFlits);
    EXPECT_EQ(original.shardRunsPlanned, restored->shardRunsPlanned);
    ASSERT_EQ(original.runs.size(), restored->runs.size());
    for (std::size_t i = 0; i < original.runs.size(); ++i)
        expectRunsEqual(original.runs[i], restored->runs[i]);

    // Serialization is deterministic: re-writing the parsed result
    // reproduces the document byte for byte.
    EXPECT_EQ(writeCampaignJson(*restored), text);
}

TEST(Serialize, RejectsMismatchedSchemaVersion)
{
    JsonValue json = toJson(syntheticResult());
    json.set("version", kCampaignSchemaVersion + 1);
    std::string error;
    EXPECT_FALSE(campaignResultFromJson(json, &error).has_value());
    EXPECT_NE(error.find("version"), std::string::npos);

    json.set("version", kCampaignSchemaVersion);
    json.set("schema", "something-else");
    error.clear();
    EXPECT_FALSE(campaignResultFromJson(json, &error).has_value());
    EXPECT_NE(error.find("schema"), std::string::npos);
}

TEST(Serialize, RejectsMalformedDocuments)
{
    std::string error;
    EXPECT_FALSE(readCampaignJson("{not json", &error).has_value());
    EXPECT_FALSE(error.empty());

    // Wrong field type.
    JsonValue json = toJson(syntheticResult());
    json.set("goldenFlits", "lots");
    EXPECT_FALSE(campaignResultFromJson(json).has_value());

    // Unknown enum name.
    CampaignResult bad_enum = syntheticResult();
    JsonValue doc = toJson(bad_enum);
    // Dig out config.kind and corrupt it.
    JsonValue config = *doc.find("config");
    config.set("kind", "cosmic-ray");
    doc.set("config", std::move(config));
    error.clear();
    EXPECT_FALSE(campaignResultFromJson(doc, &error).has_value());
    EXPECT_NE(error.find("cosmic-ray"), std::string::npos);

    // Latency inconsistent with the detection flag.
    CampaignResult bad_latency = syntheticResult();
    bad_latency.runs[1].detectionLatency = 5; // but detected == false
    EXPECT_FALSE(
        campaignResultFromJson(toJson(bad_latency), &error).has_value());
}

TEST(Serialize, RecoveryFieldsAreValidated)
{
    // recovered on an undetected run is impossible by construction.
    CampaignResult bad = syntheticResult();
    bad.runs[1].recovered = true; // detected == false
    std::string error;
    EXPECT_FALSE(campaignResultFromJson(toJson(bad), &error).has_value());
    EXPECT_NE(error.find("recovered"), std::string::npos);

    // A recovery cycle without a trigger is inconsistent.
    CampaignResult bad_cycle = syntheticResult();
    bad_cycle.runs[1].recoveryCycle = 5; // recoveryTriggered == false
    error.clear();
    EXPECT_FALSE(
        campaignResultFromJson(toJson(bad_cycle), &error).has_value());
    EXPECT_NE(error.find("recoveryCycle"), std::string::npos);
}

TEST(Serialize, TelemetryBlockIsValidatedAgainstRuns)
{
    // The telemetry block is a deterministic projection of the runs;
    // a document whose block disagrees with its own runs is corrupt.
    JsonValue doc = toJson(syntheticResult());
    JsonValue telemetry = *doc.find("telemetry");
    telemetry.set("runsCompleted", 99);
    doc.set("telemetry", std::move(telemetry));
    std::string error;
    EXPECT_FALSE(campaignResultFromJson(doc, &error).has_value());
    EXPECT_NE(error.find("telemetry"), std::string::npos) << error;

    // A wrong outcome count is caught too, not just the totals.
    JsonValue doc2 = toJson(syntheticResult());
    JsonValue telemetry2 = *doc2.find("telemetry");
    JsonValue outcomes(JsonValue::Array{});
    for (std::size_t i = 0; i < kNumOutcomes; ++i)
        outcomes.push(0);
    telemetry2.set("outcomes", std::move(outcomes));
    doc2.set("telemetry", std::move(telemetry2));
    error.clear();
    EXPECT_FALSE(campaignResultFromJson(doc2, &error).has_value());
    EXPECT_NE(error.find("telemetry"), std::string::npos) << error;
}

TEST(Serialize, IdentityExcludesExecutionKnobs)
{
    CampaignConfig a;
    CampaignConfig b;
    b.jobs = 16;
    b.shardIndex = 2;
    b.shardCount = 8;
    b.checkpointPath = "elsewhere.json";
    b.checkpointEvery = 1;
    EXPECT_EQ(campaignIdentityJson(a), campaignIdentityJson(b));

    b.sampleSeed += 1;
    EXPECT_NE(campaignIdentityJson(a), campaignIdentityJson(b));

    // The recovery switch changes what a run measures, so it is part
    // of the campaign identity (a checkpoint written with recovery off
    // must not resume a --recovery shard).
    CampaignConfig c;
    CampaignConfig d;
    d.recovery = true;
    EXPECT_NE(campaignIdentityJson(c), campaignIdentityJson(d));
}

// ---- Artifact identity hash (the result cache's key domain) ----

TEST(Serialize, NormalizedConfigPinsDerivedKnobs)
{
    CampaignConfig config;
    config.warmup = 150;
    config.observeWindow = 900;
    config.workload.synthetic.stopCycle = 0; // Whatever the caller left here.
    const CampaignConfig normal = normalizedCampaignConfig(config);
    EXPECT_EQ(normal.workload.synthetic.stopCycle, 150 + 900);

    CampaignConfig recovery_config;
    recovery_config.recovery = true;
    const CampaignConfig recovered =
        normalizedCampaignConfig(recovery_config);
    EXPECT_TRUE(recovered.network.retransmit.enabled);
    EXPECT_EQ(recovered.network.routing, noc::RoutingAlgo::QAdaptive);
    EXPECT_FALSE(recovered.runForever);
}

TEST(Serialize, NormalizationIsIdempotent)
{
    CampaignConfig config;
    config.recovery = true;
    config.warmup = 100;
    const CampaignConfig once = normalizedCampaignConfig(config);
    const CampaignConfig twice = normalizedCampaignConfig(once);
    EXPECT_EQ(toJson(once).dump(), toJson(twice).dump());
}

TEST(Serialize, ArtifactHashIgnoresExecutionKnobs)
{
    CampaignConfig a;
    CampaignConfig b;
    b.jobs = 16;
    b.checkpointPath = "elsewhere.json";
    b.checkpointEvery = 1;
    // Artifacts are byte-identical across execution knobs, so specs
    // differing only there must share one cache slot.
    EXPECT_EQ(campaignArtifactHash(a), campaignArtifactHash(b));

    const std::string hash = campaignArtifactHash(a);
    EXPECT_EQ(hash.size(), 16u);
    EXPECT_EQ(hash.find_first_not_of("0123456789abcdef"),
              std::string::npos)
        << hash;
}

TEST(Serialize, ArtifactHashSeparatesIdentityShardAndKernel)
{
    CampaignConfig base;
    // Campaign identity differences must split the key...
    CampaignConfig other_seed = base;
    other_seed.workload.synthetic.seed += 1;
    EXPECT_NE(campaignArtifactHash(base),
              campaignArtifactHash(other_seed));

    // ...and so must the shard selector and the kernel choice: both
    // are serialized into the artifact's config block, so two such
    // documents are not byte-interchangeable even though they describe
    // the same campaign identity.
    CampaignConfig shard = base;
    shard.shardIndex = 1;
    shard.shardCount = 2;
    EXPECT_NE(campaignArtifactHash(base), campaignArtifactHash(shard));

    CampaignConfig dense = base;
    dense.denseKernel = true;
    EXPECT_NE(campaignArtifactHash(base), campaignArtifactHash(dense));
}

TEST(Serialize, ArtifactHashOfSpecMatchesFinishedArtifact)
{
    // The cache-correctness invariant end to end: the hash of the
    // *submitted* spec (pre-normalization, derived knobs unset) must
    // equal the hash of the config block a finished artifact records
    // (post-constructor normalization) — otherwise a cache keyed on
    // submission hashes could never find the artifacts it stored.
    CampaignConfig spec;
    spec.network.width = 4;
    spec.network.height = 4;
    spec.workload.synthetic.injectionRate = 0.05;
    spec.workload.synthetic.seed = 13;
    spec.workload.synthetic.stopCycle = 0;
    spec.warmup = 150;
    spec.observeWindow = 500;
    spec.drainLimit = 2500;
    spec.maxSites = 2;
    spec.runForever = false;
    const std::string submitted = campaignArtifactHash(spec);

    const CampaignResult result = FaultCampaign(spec).run();
    ASSERT_TRUE(result.complete());
    EXPECT_EQ(submitted, campaignArtifactHash(result.config));

    // And re-parsing the artifact keeps the key stable.
    const auto reread = readCampaignJson(writeCampaignJson(result));
    ASSERT_TRUE(reread.has_value());
    EXPECT_EQ(submitted, campaignArtifactHash(reread->config));
}

// ---- End-to-end sharding, checkpointing, and merge ----

CampaignConfig
tinyCampaign()
{
    CampaignConfig config;
    config.network.width = 4;
    config.network.height = 4;
    config.workload.synthetic.injectionRate = 0.05;
    config.workload.synthetic.seed = 13;
    config.warmup = 200;
    config.observeWindow = 1200;
    config.drainLimit = 4000;
    config.maxSites = 16;
    config.forever.epochLength = 400;
    return config;
}

TEST(Sharding, MergedShardsAreBitIdenticalToUnshardedRun)
{
    const CampaignResult whole = FaultCampaign(tinyCampaign()).run();
    ASSERT_TRUE(whole.complete());

    std::vector<CampaignResult> shards;
    for (unsigned i = 0; i < 2; ++i) {
        CampaignConfig config = tinyCampaign();
        config.shardIndex = i;
        config.shardCount = 2;
        // Jobs count must not matter for the merged outcome.
        config.jobs = i + 1;
        shards.push_back(FaultCampaign(config).run());
        ASSERT_TRUE(shards.back().complete());
        EXPECT_LT(shards.back().runs.size(), whole.runs.size());
    }

    std::string error;
    auto merged = mergeCampaignShards(shards, &error);
    ASSERT_TRUE(merged.has_value()) << error;

    // The merged document matches the single-process run exactly —
    // same runs in the same order, a bit-identical summary, and
    // byte-identical JSON (execution knobs never reach the artifact,
    // so no alignment is needed).
    ASSERT_EQ(merged->runs.size(), whole.runs.size());
    for (std::size_t i = 0; i < whole.runs.size(); ++i)
        expectRunsEqual(merged->runs[i], whole.runs[i]);
    EXPECT_EQ(toJson(merged->summarize()).dump(),
              toJson(whole.summarize()).dump());
    EXPECT_EQ(writeCampaignJson(*merged), writeCampaignJson(whole));
}

TEST(Sharding, MergedSampledShardKeepsSamplerCompletion)
{
    // Sampled campaigns are single-shard; merging that shard must
    // reproduce it, completion flag included.
    CampaignConfig config = tinyCampaign();
    config.sampling.enabled = true;
    config.sampling.ciHalfWidth = 0.0;
    config.sampling.maxRuns = 8;
    config.sampling.batchSize = 8;
    const CampaignResult whole = FaultCampaign(config).run();
    ASSERT_TRUE(whole.complete());

    std::string error;
    auto merged = mergeCampaignShards({&whole, 1}, &error);
    ASSERT_TRUE(merged.has_value()) << error;
    EXPECT_TRUE(merged->samplerDone);
    EXPECT_TRUE(merged->complete());
    EXPECT_EQ(writeCampaignJson(*merged), writeCampaignJson(whole));
}

TEST(Sharding, MergeRejectsBadShardSets)
{
    CampaignConfig config = tinyCampaign();
    config.maxSites = 6;
    config.shardCount = 2;
    config.shardIndex = 0;
    const CampaignResult shard0 = FaultCampaign(config).run();

    std::string error;
    // Missing shard 1.
    EXPECT_FALSE(mergeCampaignShards({&shard0, 1}, &error).has_value());
    EXPECT_NE(error.find("expected 2 shards"), std::string::npos);

    // Duplicate shard 0.
    std::vector<CampaignResult> dup = {shard0, shard0};
    EXPECT_FALSE(mergeCampaignShards(dup, &error).has_value());
    EXPECT_NE(error.find("duplicate"), std::string::npos);

    // Identity mismatch.
    config.shardIndex = 1;
    config.sampleSeed += 1;
    std::vector<CampaignResult> mixed = {shard0,
                                         FaultCampaign(config).run()};
    EXPECT_FALSE(mergeCampaignShards(mixed, &error).has_value());
    EXPECT_NE(error.find("different campaign"), std::string::npos);

    // Incomplete shard.
    std::vector<CampaignResult> partial = {shard0, shard0};
    partial[1].config.shardIndex = 1;
    partial[1].runs.clear();
    EXPECT_FALSE(mergeCampaignShards(partial, &error).has_value());
    EXPECT_NE(error.find("incomplete"), std::string::npos);
}

TEST(Sharding, InterruptedShardResumesFromCheckpoint)
{
    const std::string checkpoint =
        testing::TempDir() + "nocalert_resume_checkpoint.json";
    std::remove(checkpoint.c_str());

    CampaignConfig config = tinyCampaign();
    config.maxSites = 8;
    config.checkpointPath = checkpoint;
    config.checkpointEvery = 1;

    // Reference: the same shard in one uninterrupted pass.
    CampaignConfig plain = config;
    plain.checkpointPath.clear();
    const CampaignResult whole = FaultCampaign(plain).run();

    // First pass "killed" after 3 runs: checkpoint survives.
    FaultCampaign::RunOptions options;
    options.maxNewRuns = 3;
    const CampaignResult partial =
        FaultCampaign(config).run(nullptr, options);
    EXPECT_FALSE(partial.complete());
    EXPECT_EQ(partial.runs.size(), 3u);

    // Second pass resumes: only the remaining runs execute.
    std::size_t executed = 0;
    std::size_t total_seen = 0;
    const CampaignResult resumed = FaultCampaign(config).run(
        [&](std::size_t, std::size_t total) {
            ++executed;
            total_seen = total;
        });
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(executed, whole.runs.size() - 3);
    EXPECT_EQ(total_seen, whole.runs.size());

    // The resumed result is exactly the uninterrupted one (modulo the
    // checkpoint path execution knob).
    ASSERT_EQ(resumed.runs.size(), whole.runs.size());
    for (std::size_t i = 0; i < whole.runs.size(); ++i)
        expectRunsEqual(resumed.runs[i], whole.runs[i]);
    EXPECT_EQ(toJson(resumed.summarize()).dump(),
              toJson(whole.summarize()).dump());

    // The checkpoint file itself is the finished shard.
    std::string error;
    const auto from_disk = loadCampaignResult(checkpoint, &error);
    ASSERT_TRUE(from_disk.has_value()) << error;
    EXPECT_TRUE(from_disk->complete());
    std::remove(checkpoint.c_str());
}

TEST(Sharding, CorruptCheckpointReportsPathAndOffset)
{
    const std::string checkpoint =
        testing::TempDir() + "nocalert_corrupt_checkpoint.json";
    // A prefix of a real document: what a crash or a full disk leaves
    // behind mid-write.
    const std::string full = writeCampaignJson(syntheticResult());
    {
        std::FILE *f = std::fopen(checkpoint.c_str(), "w");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(full.data(), 1, full.size() / 2, f),
                  full.size() / 2);
        std::fclose(f);
    }

    std::string error;
    EXPECT_FALSE(loadCampaignResult(checkpoint, &error).has_value());
    // The error names the offending file and the byte offset of the
    // parse failure, so a truncated checkpoint is diagnosable instead
    // of a crash or a silent restart.
    EXPECT_NE(error.find(checkpoint), std::string::npos) << error;
    EXPECT_NE(error.find("offset"), std::string::npos) << error;
    std::remove(checkpoint.c_str());
}

TEST(Sharding, CheckpointFromDifferentCampaignIsFatal)
{
    const std::string checkpoint =
        testing::TempDir() + "nocalert_foreign_checkpoint.json";

    CampaignConfig config = tinyCampaign();
    config.maxSites = 4;
    config.checkpointPath = checkpoint;
    FaultCampaign(config).run();

    config.sampleSeed += 1; // now a different campaign
    EXPECT_DEATH(FaultCampaign(config).run(), "different campaign");
    std::remove(checkpoint.c_str());
}

TEST(Sharding, CheckpointRunOffThePlanIsFatal)
{
    // Resume replays a checkpointed run only in place of the very draw
    // the plan puts at its index; any other run is refused.
    const std::string checkpoint =
        testing::TempDir() + "nocalert_doctored_checkpoint.json";
    std::remove(checkpoint.c_str());
    const auto rewrite = [&](const CampaignResult &doctored) {
        std::string error;
        ASSERT_TRUE(saveCampaignResult(doctored, checkpoint, &error))
            << error;
    };
    FaultCampaign::RunOptions two;
    two.maxNewRuns = 2;

    CampaignConfig shard0 = tinyCampaign();
    shard0.shardCount = 2;
    shard0.checkpointPath = checkpoint;
    CampaignResult doctored = FaultCampaign(shard0).run(nullptr, two);
    ASSERT_EQ(doctored.runs.size(), 2u);

    // A genuine run of shard 1: its site is the site list's at its
    // index, but shard 0 never plans index 1.
    CampaignConfig shard1 = shard0;
    shard1.shardIndex = 1;
    shard1.checkpointPath.clear();
    FaultCampaign::RunOptions one;
    one.maxNewRuns = 1;
    const FaultRunResult foreign =
        FaultCampaign(shard1).run(nullptr, one).runs.at(0);
    ASSERT_EQ(foreign.sampleIndex, 1u);
    doctored.runs.insert(doctored.runs.begin() + 1, foreign);
    rewrite(doctored);
    EXPECT_DEATH(FaultCampaign(shard0).run(), "never plans");

    // A wrong site at an index shard 0 does own.
    doctored.runs.erase(doctored.runs.begin() + 1);
    doctored.runs[1].site = foreign.site;
    rewrite(doctored);
    EXPECT_DEATH(FaultCampaign(shard0).run(), "does not match");

    // A sampled run whose traffic-seed tag differs from its draw.
    CampaignConfig sampled = tinyCampaign();
    sampled.checkpointPath = checkpoint;
    sampled.sampling.enabled = true;
    sampled.sampling.ciHalfWidth = 0.0;
    sampled.sampling.maxRuns = 8;
    sampled.sampling.batchSize = 4;
    sampled.sampling.seedCount = 2;
    std::remove(checkpoint.c_str());
    doctored = FaultCampaign(sampled).run(nullptr, two);
    ASSERT_EQ(doctored.runs.size(), 2u);
    doctored.runs[1].seedIndex ^= 1;
    rewrite(doctored);
    EXPECT_DEATH(FaultCampaign(sampled).run(), "does not match");
    std::remove(checkpoint.c_str());
}

} // namespace
} // namespace nocalert::fault
