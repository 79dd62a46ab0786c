/**
 * @file
 * Run a small fault-injection campaign and print the classification
 * breakdown — a miniature of the paper's Section 5.4 evaluation.
 *
 *   ./fault_campaign [campaign flags] [--jobs N] [--progress]
 *                    [--csv FILE] [--json FILE]
 *
 * Takes the campaign flags every campaign CLI shares
 * (fault/campaign_cli.hpp; listed by `campaign_shard help`) with its
 * own defaults: an 8x8 mesh at rate 0.04 after a 1000-cycle warmup.
 * `--sample` switches to the statistical engine (stratified random
 * draws with adaptive stopping); the summary then includes
 * per-stratum detection estimates with Wilson and Clopper-Pearson
 * intervals. A bad flag value exits with status 1.
 */

#include <cstdio>
#include <fstream>
#include <utility>

#include "exec/telemetry.hpp"
#include "fault/campaign.hpp"
#include "fault/campaign_cli.hpp"
#include "fault/report.hpp"
#include "fault/serialize.hpp"
#include "util/cli.hpp"

using namespace nocalert;

int
main(int argc, char **argv)
{
    const CommandLine cli(argc, argv,
                          fault::withCampaignFlags(
                              {"jobs", "csv", "json", "progress"}));
    fault::CampaignConfig defaults;
    defaults.network.width = defaults.network.height = 8;
    defaults.workload.synthetic.injectionRate = 0.04;
    defaults.workload.setSeed(3);
    defaults.warmup = 1000;
    defaults.maxSites = 120;
    fault::CampaignConfig config =
        fault::campaignConfigFromCli(cli, std::move(defaults));
    config.jobs = static_cast<unsigned>(cli.getInt("jobs", 0));

    if (config.sampling.enabled) {
        std::printf("running sampled campaign on a %dx%d mesh "
                    "(warmup %lld cycles, half-width %.3g)...\n",
                    config.network.width, config.network.height,
                    static_cast<long long>(config.warmup),
                    config.sampling.ciHalfWidth);
    } else {
        std::printf("running %u-site campaign on a %dx%d mesh "
                    "(warmup %lld cycles)...\n",
                    config.maxSites, config.network.width,
                    config.network.height,
                    static_cast<long long>(config.warmup));
    }

    fault::FaultCampaign::RunOptions options;
    if (cli.getBool("progress", false)) {
        options.telemetry = [](const exec::TelemetrySnapshot &snap) {
            std::fprintf(stderr, "\r\033[K%s",
                         exec::TelemetryHub::progressLine(snap).c_str());
        };
    }

    fault::FaultCampaign campaign(config);
    const fault::CampaignResult result = campaign.run(nullptr, options);
    if (options.telemetry)
        std::fprintf(stderr, "\n");
    const fault::CampaignSummary summary = result.summarize();

    // The same classification table campaign_shard prints.
    std::printf("%s", fault::summaryText(result).c_str());
    std::printf("false negatives (must be 0): %llu\n",
                static_cast<unsigned long long>(
                    summary.nocalert[static_cast<unsigned>(
                        fault::Outcome::FalseNegative)]));
    if (result.config.recovery) {
        std::printf("detected-recovered: %llu of %llu runs\n",
                    static_cast<unsigned long long>(
                        summary.nocalert[static_cast<unsigned>(
                            fault::Outcome::DetectedRecovered)]),
                    static_cast<unsigned long long>(summary.runs));
    }

    if (cli.has("csv")) {
        const std::string path = cli.getString("csv", "campaign.csv");
        std::ofstream file(path);
        fault::writeCampaignCsv(result, file);
        std::printf("per-run records written to %s\n", path.c_str());
    }
    if (cli.has("json")) {
        const std::string path = cli.getString("json", "campaign.json");
        std::string error;
        if (!fault::saveCampaignResult(result, path, &error))
            std::printf("JSON export failed: %s\n", error.c_str());
        else
            std::printf("result JSON written to %s\n", path.c_str());
    }
    return 0;
}
