/**
 * @file
 * The benchmark binary: runs one workload once and prints, as its
 * last stdout line, one JSON object with the metrics, checked and
 * failed operation counts, artifact digests, errors and host facts.
 *
 *   perfbench WORKLOAD --seed N --seconds S --trace 0|1
 *             --state-dir DIR [--trace-out FILE]
 *
 * WORKLOAD is campaign-default, sampled-recovery-bursty or
 * serve-resubmit. Exit status: 0 when every output checked out,
 * 1 on a wrong output, 2 on a usage or guard error.
 */
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "benches.hpp"
#include "util/log.hpp"

namespace perfbench {
extern std::atomic<unsigned long> fsyncCalls;
}

namespace {

using namespace perfbench;

int
usage(const char *why)
{
    std::fprintf(stderr, "perfbench: %s\n", why);
    return 2;
}

nocalert::JsonValue
loadAverage()
{
    double load[3] = {0, 0, 0};
    nocalert::JsonValue out(nocalert::JsonValue::Array{});
    if (::getloadavg(load, 3) == 3)
        for (double l : load)
            out.push(l);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    return usage("refusing to measure a non-optimized build");
#endif
    if (argc < 2)
        return usage("usage: perfbench WORKLOAD --seed N --seconds S "
                     "--trace 0|1 --state-dir DIR [--trace-out FILE]");
    const std::string name = argv[1];
    long long seed = -1;
    double seconds = 0.0;
    bool traced = false;
    std::string state_dir;
    std::string trace_out;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--seed")
            seed = std::atoll(value);
        else if (key == "--seconds")
            seconds = std::atof(value);
        else if (key == "--trace")
            traced = std::string(value) == "1";
        else if (key == "--state-dir")
            state_dir = value;
        else if (key == "--trace-out")
            trace_out = value;
        else
            return usage(("unknown option " + key).c_str());
    }
    if (state_dir.empty() || seconds <= 0.0 || seed < 0 ||
        seed > (1ll << 40))
        return usage("--state-dir, a positive --seconds and a --seed in "
                     "[0, 2^40] are required");

    const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    Report report;
    report.fact("nproc", nproc);
    report.fact("compiler", PERFBENCH_COMPILER);
    report.fact("build_type", PERFBENCH_BUILD_TYPE);
    report.fact("load_start", loadAverage());

    const auto workload_seed = static_cast<std::uint64_t>(seed);
    std::optional<ServeWorkload> serve;
    std::optional<CampaignWorkload> campaign;
    if (name == "serve-resubmit")
        serve = serveResubmit(workload_seed);
    else if (name == "campaign-default")
        campaign = campaignDefault(workload_seed);
    else if (name == "sampled-recovery-bursty")
        campaign = sampledRecoveryBursty(workload_seed);
    else
        return usage(("unknown workload " + name).c_str());
    const unsigned jobs = serve ? serve->jobs : campaign->config.jobs;
    if (jobs > static_cast<unsigned long>(nproc))
        return usage("workload needs more worker threads than nproc");
    report.fact("jobs", jobs);

    std::filesystem::remove_all(state_dir);
    std::filesystem::create_directories(state_dir);
    Tracer tracer;
    if (serve) {
        runServeWorkload(*serve, traced, state_dir, tracer, report);
    } else {
        campaign->repetitions = std::max<unsigned>(
            campaign->repetitions,
            static_cast<unsigned>(
                std::lround(seconds / campaign->nominalRepSeconds)));
        report.fact("repetitions", campaign->repetitions);
        runCampaignWorkload(*campaign, traced, state_dir, tracer, report);
    }
    report.fact("fsync_calls_skipped",
                static_cast<std::uint64_t>(fsyncCalls.load()));
    report.fact("load_end", loadAverage());
    if (traced) {
        report.fact("spans", tracer.spans().size());
        if (!trace_out.empty() && !tracer.write(trace_out))
            report.fail("cannot write spans to " + trace_out);
    }
    std::filesystem::remove_all(state_dir);
    std::printf("%s\n", report.json().dump().c_str());
    return report.failed() == 0 ? 0 : 1;
}
