#include "fault/campaign_cli.hpp"

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "traffic/workload.hpp"
#include "util/log.hpp"

namespace nocalert::fault {

namespace {

/** Every campaign flag (first word, after any indent) and its help. */
constexpr const char *kFlags[][2] = {
    {"mesh N", "N x N mesh"},
    {"sites N", "fault sites sampled, 0 = all"},
    {"rate R", "synthetic injection rate"},
    {"seed S", "traffic seed"},
    {"warmup N", "cycles before the injection"},
    {"kind K", "transient|permanent|intermittent [transient]"},
    {"recovery", "close the detection -> recovery loop"},
    {"dense-kernel", "simulate on the dense reference kernel"},
    {"shard i/N", "run only runs i, i+N, ... [0/1]"},
    {"sample", "stratified random draws until every stratum's interval"},
    {"  ci-width W", "is this narrow, 0 = never [0.05], or until"},
    {"  max-runs N", "this many draws, 0 = no cap [0]; one must bound"},
    {"  batch N", "draws per batch [64]"},
    {"  confidence C", "interval confidence [0.95]"},
    {"  stratify MODE", "none|signal-class|phase [signal-class]"},
    {"  ci-method M", "wilson|clopper-pearson [wilson]"},
    {"  cycle-jitter N", "inject at warmup + U[0, N] [0]"},
    {"  seeds N", "traffic seeds drawn from [1]"},
    {"  sampler-seed S", "seed of the draw stream [1]"},
    {"phases PROG", "phase program \"b:e:pattern:rate[:node:frac],...\""},
    {"  burst SPEC", "on/off bursts \"period:onP:onMult:offMult[:layers]\""},
    {"  phase-repeat", "wrap the program instead of idling"},
    {"trace-replay F", "replay a recorded injection trace"},
};

/** The flag name of a kFlags usage string ("  ci-width W" -> "ci-width"). */
std::string_view
flagName(std::string_view usage)
{
    const std::size_t begin = usage.find_first_not_of(' ');
    return usage.substr(begin, usage.find(' ', begin) - begin);
}

/** Overwrite @p field with the value of --@p flag when it is given. */
template <typename T>
void
apply(const CommandLine &cli, const char *flag, T &field)
{
    if constexpr (std::is_same_v<T, bool>)
        field = cli.getBool(flag, field);
    else if constexpr (std::is_floating_point_v<T>)
        field = cli.getDouble(flag, field);
    else
        field = static_cast<T>(
            cli.getInt(flag, static_cast<std::int64_t>(field)));
}

/** The enum value named by --@p flag, @p fallback when absent. */
template <typename E>
E
named(const CommandLine &cli, const char *flag, E fallback,
      const char *(*name)(E), std::optional<E> (*parse)(std::string_view))
{
    const std::string value = cli.getString(flag, name(fallback));
    const std::optional<E> parsed = parse(value);
    if (!parsed)
        NOCALERT_FATAL("unknown --", flag, " '", value,
                       "'; see the campaign flags in the help");
    return *parsed;
}

} // namespace

CampaignConfig
batchCampaignDefaults()
{
    CampaignConfig config;
    config.network.width = config.network.height = 4;
    config.workload.synthetic.injectionRate = 0.05;
    config.workload.setSeed(3);
    config.warmup = 200;
    config.maxSites = 120;
    return config;
}

std::vector<std::string>
withCampaignFlags(std::vector<std::string> own)
{
    for (const auto &[usage, help] : kFlags)
        own.emplace_back(flagName(usage));
    return own;
}

std::string
campaignFlagsHelp(const CampaignConfig &defaults)
{
    std::string text = "campaign flags:\n";
    char line[128];
    for (const auto &[usage, help] : kFlags) {
        const int indent = usage[0] == ' ' ? 2 : 0;
        std::snprintf(line, sizeof(line), "  %*s--%-*s %s\n", indent, "",
                      16 - indent, usage + indent, help);
        text += line;
    }
    std::snprintf(line, sizeof(line),
                  "defaults here: --mesh %d --sites %u --rate %g "
                  "--seed %llu --warmup %lld\n",
                  defaults.network.width, defaults.maxSites,
                  defaults.workload.synthetic.injectionRate,
                  static_cast<unsigned long long>(defaults.workload.seed()),
                  static_cast<long long>(defaults.warmup));
    return text + line;
}

CampaignConfig
campaignConfigFromCli(const CommandLine &cli, CampaignConfig defaults)
{
    CampaignConfig config = std::move(defaults);
    if (cli.has("mesh")) {
        config.network.width = static_cast<int>(cli.getInt("mesh", 0));
        config.network.height = config.network.width;
    }
    nocalert::traffic::workloadFromCli(cli, config.workload);
    apply(cli, "rate", config.workload.synthetic.injectionRate);
    if (cli.has("seed"))
        config.workload.setSeed(
            static_cast<std::uint64_t>(cli.getInt("seed", 0)));
    apply(cli, "warmup", config.warmup);
    apply(cli, "sites", config.maxSites);
    apply(cli, "dense-kernel", config.denseKernel);
    apply(cli, "recovery", config.recovery);
    config.kind = named(cli, "kind", config.kind, faultKindName,
                        faultKindFromName);

    if (cli.has("shard")) {
        const std::string shard = cli.getString("shard", "");
        char rest = 0;
        if (std::sscanf(shard.c_str(), "%u/%u%c", &config.shardIndex,
                        &config.shardCount, &rest) != 2)
            NOCALERT_FATAL("--shard expects i/N, got '", shard, "'");
    }

    SamplingSpec &sampling = config.sampling;
    apply(cli, "sample", sampling.enabled);
    if (!sampling.enabled) {
        // The rows indented under --sample configure the sampler and
        // mean nothing without it: refuse them rather than drop them.
        bool under_sample = false;
        for (const auto &[usage, help] : kFlags) {
            if (usage[0] != ' ')
                under_sample = flagName(usage) == "sample";
            else if (under_sample && cli.has(std::string(flagName(usage))))
                NOCALERT_FATAL("--", flagName(usage), " requires --sample");
        }
        return config;
    }
    apply(cli, "ci-width", sampling.ciHalfWidth);
    apply(cli, "max-runs", sampling.maxRuns);
    apply(cli, "batch", sampling.batchSize);
    apply(cli, "confidence", sampling.confidence);
    apply(cli, "cycle-jitter", sampling.cycleJitter);
    apply(cli, "seeds", sampling.seedCount);
    apply(cli, "sampler-seed", sampling.samplerSeed);
    sampling.stratify = named(cli, "stratify", sampling.stratify,
                              stratifyName, stratifyFromName);
    sampling.method = named(cli, "ci-method", sampling.method,
                            stats::intervalMethodName,
                            stats::intervalMethodFromName);
    // The planner's budget guard would catch this too, but only inside
    // the FaultCampaign constructor (or, for a submission, the
    // daemon); fail here with flag names the user can act on.
    if (sampling.ciHalfWidth <= 0 && sampling.maxRuns == 0)
        NOCALERT_FATAL("--sample needs --ci-width > 0 or --max-runs > 0 "
                       "to bound the campaign");
    return config;
}

} // namespace nocalert::fault
