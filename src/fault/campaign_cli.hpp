/**
 * @file
 * The one front door from command-line flags to a CampaignConfig,
 * shared by every campaign CLI (fault_campaign, campaign_shard run,
 * nocalert_client submit): one flag list, one help text, one set of
 * validation rules. Each caller passes its own defaults as a
 * CampaignConfig value and keeps its execution flags (--jobs, --out,
 * checkpointing, --limit, --progress) to itself.
 */

#ifndef NOCALERT_FAULT_CAMPAIGN_CLI_HPP
#define NOCALERT_FAULT_CAMPAIGN_CLI_HPP

#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "util/cli.hpp"

namespace nocalert::fault {

/**
 * Campaign defaults of the batch CLIs, `campaign_shard run` and
 * `nocalert_client submit`: a 4x4 mesh, 120 sampled sites, rate 0.05,
 * traffic seed 3, warmup 200. One definition, because a submit is
 * byte-identical to the batch run of the same flags only while both
 * start from the same defaults.
 */
CampaignConfig batchCampaignDefaults();

/** @p own plus every flag campaignConfigFromCli reads. */
std::vector<std::string> withCampaignFlags(std::vector<std::string> own);

/** The campaign-flag table, with @p defaults shown where they vary. */
std::string campaignFlagsHelp(const CampaignConfig &defaults);

/**
 * @p defaults with the campaign flags present in @p cli applied.
 * Every bad value or flag combination is fatal (exit status 1) before
 * any simulation starts, with a message naming the flag; that includes
 * a `--sample` campaign nothing would ever stop.
 */
CampaignConfig campaignConfigFromCli(const CommandLine &cli,
                                     CampaignConfig defaults);

} // namespace nocalert::fault

#endif // NOCALERT_FAULT_CAMPAIGN_CLI_HPP
