/**
 * @file
 * Versioned JSON serialization of fault-campaign configurations and
 * results, plus the shard-merge path.
 *
 * A CampaignResult document carries a schema tag and version so a
 * reader can reject files written by an incompatible build instead of
 * silently misreading them. Serialization is deterministic (object
 * members in a fixed order, exact integers, shortest round-trip
 * doubles): two equal results serialize to byte-identical JSON, which
 * is what the CI campaign-smoke check and the merge acceptance test
 * compare.
 *
 * The same format doubles as the shard checkpoint: a partial result
 * (shardRunsPlanned > runs.size()) written periodically by
 * FaultCampaign::run lets a killed shard resume from its last
 * completed run.
 */

#ifndef NOCALERT_FAULT_SERIALIZE_HPP
#define NOCALERT_FAULT_SERIALIZE_HPP

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "fault/campaign.hpp"
#include "fault/sampled.hpp"
#include "util/json.hpp"

namespace nocalert::fault {

/**
 * Version of the campaign JSON schema this build reads and writes.
 * History: 1 = initial sharded/resumable format; 2 = adds the
 * CampaignConfig "denseKernel" execution field; 3 = adds the
 * recovery loop — CampaignConfig "recovery", the network "retransmit"
 * parameters, and per-run recovery/retransmission counters; 4 = adds
 * the deterministic "telemetry" block and *drops* the pure execution
 * knobs (threads/jobs, checkpointPath, checkpointEvery) from the
 * config section, so the artifact is a pure function of the campaign
 * identity plus shard selector — byte-identical for every `--jobs`
 * value and checkpoint cadence; 5 = sampled campaigns — the config
 * "sampling" spec, per-run "stratum"/"seedIndex" tags, the
 * "samplerDone" completion flag and the deterministic "sampling"
 * report block (per-stratum estimates with Wilson and Clopper-Pearson
 * intervals); 6 = workload engine — non-synthetic workloads replace
 * the flat config "traffic" block with a "workload" block (kind +
 * phased phase program / trace replay identity).
 *
 * The writer emits version 4 for exhaustive synthetic campaigns,
 * version 5 for sampled synthetic ones, and version 6 only when the
 * workload is non-synthetic, so every pre-workload artifact stays
 * byte-identical; the reader accepts all three and rejects documents
 * whose version disagrees with their config.
 */
inline constexpr std::int64_t kCampaignSchemaVersion = 6;

/** The version synthetic sampled campaigns serialize as. */
inline constexpr std::int64_t kCampaignSchemaVersionSampled = 5;

/** Oldest schema version the reader still accepts. */
inline constexpr std::int64_t kCampaignSchemaVersionMin = 4;

/** The version a given config serializes as (see the history above). */
std::int64_t campaignSchemaVersionFor(const CampaignConfig &config);

/** Schema tag stored in every campaign document. */
inline constexpr const char *kCampaignSchemaName = "nocalert-campaign";

// ---- Structure -> JSON ----

JsonValue toJson(const CampaignConfig &config);
/** @p sampled adds the schema-v5 stratum/seedIndex tags. */
JsonValue toJson(const FaultRunResult &run, bool sampled = false);
JsonValue toJson(const CampaignResult &result); ///< Adds schema header.
JsonValue toJson(const CampaignSummary &summary);
JsonValue toJson(const CampaignTelemetry &telemetry);
JsonValue toJson(const SamplingReport &report); ///< Schema-v5 block.

/**
 * The subset of a config that defines campaign *identity*: everything
 * except the shard selector and the kernel choice. The pure execution
 * knobs (jobs, checkpointing) never reach JSON at all in schema v4.
 * Two shards / a checkpoint and its resumer must agree on this.
 */
JsonValue campaignIdentityJson(const CampaignConfig &config);

/**
 * Key of the artifact byte-identity domain: a 16-hex-digit FNV-1a 64
 * hash over the *serialized normalized* config. Campaign results are
 * a pure function of campaign identity, and the artifact's config
 * block additionally records the shard selector and kernel choice —
 * so two configs with equal hashes produce byte-identical artifact
 * documents, which is exactly the invariant a result cache needs.
 * Normalization first (normalizedCampaignConfig) makes the hash of a
 * freshly parsed spec match the hash of the config the finished
 * artifact records.
 */
std::string campaignArtifactHash(const CampaignConfig &config);

// ---- JSON -> structure (nullopt + *error on malformed input) ----

std::optional<CampaignConfig> campaignConfigFromJson(
    const JsonValue &json, std::string *error = nullptr);
std::optional<FaultRunResult> faultRunFromJson(
    const JsonValue &json, std::string *error = nullptr);

/** Rejects documents whose schema tag or version does not match. */
std::optional<CampaignResult> campaignResultFromJson(
    const JsonValue &json, std::string *error = nullptr);

// ---- Whole-document text and file helpers ----

/** Pretty-printed JSON document (2-space indent, trailing newline). */
std::string writeCampaignJson(const CampaignResult &result);

std::optional<CampaignResult> readCampaignJson(
    std::string_view text, std::string *error = nullptr);

/** Write atomically and durably (writeFileAtomic), false + *error on
 *  failure. */
bool saveCampaignResult(const CampaignResult &result,
                        const std::string &path,
                        std::string *error = nullptr);

std::optional<CampaignResult> loadCampaignResult(
    const std::string &path, std::string *error = nullptr);

// ---- Shard merge ----

/**
 * Recombine the outputs of a sharded campaign. Requires a complete
 * cover: every shard present exactly once, each complete, and all
 * agreeing on campaign identity and on the deterministic globals
 * (totalSitesEnumerated, goldenFlits). The merged result has runs in
 * global sampleIndex order and an unsharded config, so its summary —
 * and its serialized form — is bit-identical to the same campaign run
 * in a single process.
 */
std::optional<CampaignResult> mergeCampaignShards(
    std::span<const CampaignResult> shards,
    std::string *error = nullptr);

} // namespace nocalert::fault

#endif // NOCALERT_FAULT_SERIALIZE_HPP
