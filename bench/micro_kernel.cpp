/**
 * @file
 * Dense vs bitmask kernel throughput on the campaign's cycle shape: a
 * warmed 8x8 network is copied per run, NoCAlert and ForEVeR observe
 * every cycle, traffic runs for the observation window, the network
 * drains, and a ForEVeR epoch tail completes the horizon — exactly
 * the per-site work FaultCampaign::runSingle performs. Both kernels
 * execute the same runs; the harness verifies their ejection logs and
 * statistics stay bit-identical while it times them, then writes
 * BENCH_kernel.json with runs/sec for both kernels and the
 * bitmask-vs-dense speedup, swept across injection rates (default
 * 0.01/0.02/0.05).
 *
 * The sweep exists because the bitmask kernel's two wins scale
 * differently. Sparse scheduling is occupancy bound: at 0.05
 * packets/node/cycle an 8x8 mesh holds ~4.5 flits per router in
 * steady state, so ~86% of routers are non-quiescent during the live
 * window and skipping pays mostly in the drain + ForEVeR-epoch tail,
 * while at rates <= 0.02 most routers really are idle on most cycles.
 * The packed fast path attacks the remaining cost — per-router
 * branchy evaluation plus the full checker bank — with
 * struct-of-arrays state and a single violation word per router per
 * cycle, so it holds at high occupancy too. See EXPERIMENTS.md.
 *
 * Exit status is non-zero if the kernels ever disagree, so CI can use
 * this binary as both a perf smoke and an equivalence check.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/nocalert.hpp"
#include "forever/forever.hpp"
#include "noc/network.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

using namespace nocalert;

namespace {

struct RunOutcome
{
    std::size_t ejections = 0;
    std::uint64_t latencySum = 0;
    std::uint64_t flitsEjected = 0;
    std::size_t alerts = 0;
    noc::Cycle endCycle = 0;
    std::uint64_t routerEvals = 0;
};

struct KernelTiming
{
    double seconds = 0.0; ///< Total across runs (throughput stats).
    /**
     * Fastest single run. Speedup ratios are computed from best
     * times: every run does identical work (the outcome checks pin
     * that), so run-to-run spread is additive scheduler/cache noise
     * and the minimum is the least-contaminated cost estimate.
     */
    double bestSeconds = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t routerEvals = 0;
};

/** One campaign-shaped run of @p base's copy on @p mode. */
RunOutcome
campaignRun(const noc::Network &base, noc::KernelMode mode,
            noc::Cycle observe, noc::Cycle drain_limit,
            const forever::ForeverConfig &fc)
{
    noc::Network net(base);
    net.setKernelMode(mode);

    core::NoCAlertEngine engine(net, /*attach_now=*/false);
    forever::ForeverModel fever(net, fc, /*attach_now=*/false);
    net.setRouterObserver([&](const noc::Router &router,
                              const noc::RouterWires &wires) {
        engine.observeRouter(router, wires);
        fever.observeRouter(router, wires);
    });
    net.setPackedObserver([&](const noc::Router &router,
                              const noc::PackedCycleEvents &ev) {
        engine.observePacked(router, ev);
    });
    net.setNiObserver([&](const noc::NetworkInterface &ni,
                          const noc::NiWires &wires) {
        engine.observeNi(ni, wires);
        fever.observeNi(ni, wires);
    });
    net.setCycleObserver(
        [&](const noc::Network &n) { fever.onCycleEnd(n); });

    net.run(observe);
    net.drain(drain_limit);
    net.run(fc.epochLength + 2); // ForEVeR horizon tail

    RunOutcome out;
    out.ejections = net.collectEjections().size();
    const noc::NetworkStats stats = net.stats();
    out.latencySum = stats.latencySum;
    out.flitsEjected = stats.flitsEjected;
    out.alerts = engine.log().count();
    out.endCycle = net.cycle();
    out.routerEvals = net.routerEvaluations();
    return out;
}

bool
sameOutcome(const RunOutcome &a, const RunOutcome &b)
{
    return a.ejections == b.ejections && a.latencySum == b.latencySum &&
           a.flitsEjected == b.flitsEjected && a.alerts == b.alerts &&
           a.endCycle == b.endCycle;
}

constexpr int kNumKernels = 2;

/** Timings and verdict of one swept injection rate. */
struct RateResult
{
    double rate = 0.0;
    bool identical = true;
    KernelTiming timing[kNumKernels]; // [0]=dense [1]=bitmask
    double bitmaskVsDense = 0.0;      // dense best / bitmask best
};

RateResult
benchRate(int mesh, double rate, std::uint64_t seed, noc::Cycle warmup,
          noc::Cycle observe, int runs)
{
    noc::NetworkConfig config;
    config.width = mesh;
    config.height = mesh;
    noc::TrafficSpec traffic;
    traffic.injectionRate = rate;
    traffic.seed = seed;
    traffic.stopCycle = warmup + observe;

    const noc::Cycle drain_limit = 12000;
    const forever::ForeverConfig fc;

    // Warm base snapshot, exactly as FaultCampaign::run() prepares it.
    noc::Network base(config, traffic);
    base.run(warmup);

    RateResult result;
    result.rate = rate;
    const noc::KernelMode modes[kNumKernels] = {noc::KernelMode::Dense,
                                                noc::KernelMode::Bitmask};

    for (int r = 0; r < runs; ++r) {
        RunOutcome outcomes[kNumKernels];
        for (int k = 0; k < kNumKernels; ++k) {
            const auto start = std::chrono::steady_clock::now();
            outcomes[k] = campaignRun(base, modes[k], observe,
                                      drain_limit, fc);
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            result.timing[k].seconds += elapsed.count();
            if (r == 0 ||
                elapsed.count() < result.timing[k].bestSeconds)
                result.timing[k].bestSeconds = elapsed.count();
            result.timing[k].cycles += static_cast<std::uint64_t>(
                outcomes[k].endCycle - base.cycle());
            result.timing[k].routerEvals += outcomes[k].routerEvals;
        }
        if (!sameOutcome(outcomes[0], outcomes[1])) {
            result.identical = false;
            std::fprintf(stderr,
                         "rate %.3f run %d: bitmask DISAGREES with "
                         "dense (ejections %zu/%zu, alerts %zu/%zu, "
                         "end cycle %lld/%lld)\n",
                         rate, r, outcomes[0].ejections,
                         outcomes[1].ejections, outcomes[0].alerts,
                         outcomes[1].alerts,
                         static_cast<long long>(outcomes[0].endCycle),
                         static_cast<long long>(outcomes[1].endCycle));
        }
    }
    result.bitmaskVsDense =
        result.timing[0].bestSeconds / result.timing[1].bestSeconds;
    return result;
}

std::vector<double>
parseRates(const std::string &list)
{
    std::vector<double> rates;
    std::size_t pos = 0;
    while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok =
            list.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        if (!tok.empty())
            rates.push_back(std::stod(tok));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (rates.empty())
        NOCALERT_FATAL("--rates parsed to an empty list: ", list);
    return rates;
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli(argc, argv,
                    {"mesh", "rate", "rates", "seed", "warmup",
                     "observe", "runs", "out", "notes"});

    const int mesh = static_cast<int>(cli.getInt("mesh", 8));
    const noc::Cycle warmup = cli.getInt("warmup", 500);
    const noc::Cycle observe = cli.getInt("observe", 2000);
    const int runs = static_cast<int>(cli.getInt("runs", 3));
    const auto seed = static_cast<std::uint64_t>(cli.getInt("seed", 5));
    const std::string out_path =
        cli.getString("out", "BENCH_kernel.json");

    // --rate X pins a single rate; --rates a,b,c sweeps.
    std::vector<double> rates;
    if (cli.getDouble("rate", 0.0) > 0.0)
        rates.push_back(cli.getDouble("rate", 0.0));
    else
        rates = parseRates(cli.getString("rates", "0.01,0.02,0.05"));

    const forever::ForeverConfig fc;
    std::printf("micro_kernel: %dx%d mesh, %d runs of observe=%lld + "
                "drain + %lld-cycle tail per kernel per rate\n",
                mesh, mesh, runs, static_cast<long long>(observe),
                static_cast<long long>(fc.epochLength + 2));

    const char *names[kNumKernels] = {"dense", "bitmask"};
    bool identical = true;
    bool first = true;
    double min_speedup = 0.0;
    double max_speedup = 0.0;
    JsonValue sweep(JsonValue::Array{});

    for (const double rate : rates) {
        const RateResult res =
            benchRate(mesh, rate, seed, warmup, observe, runs);
        identical = identical && res.identical;
        if (first) {
            min_speedup = max_speedup = res.bitmaskVsDense;
            first = false;
        } else {
            min_speedup = std::min(min_speedup, res.bitmaskVsDense);
            max_speedup = std::max(max_speedup, res.bitmaskVsDense);
        }

        JsonValue entry;
        entry.set("rate", rate);
        entry.set("identical", res.identical);
        for (int k = 0; k < kNumKernels; ++k) {
            JsonValue kernel;
            kernel.set("seconds", res.timing[k].seconds);
            kernel.set("bestSeconds", res.timing[k].bestSeconds);
            kernel.set("runsPerSec", runs / res.timing[k].seconds);
            kernel.set("cyclesPerSec",
                       res.timing[k].cycles / res.timing[k].seconds);
            kernel.set("routerEvals", res.timing[k].routerEvals);
            entry.set(names[k], std::move(kernel));
        }
        entry.set("bitmaskVsDense", res.bitmaskVsDense);
        sweep.push(std::move(entry));

        std::printf("rate %.3f:\n", rate);
        for (int k = 0; k < kNumKernels; ++k) {
            std::printf("  %-7s  %8.3f s  %7.2f runs/s  "
                        "%12.0f cycles/s  %llu router evals\n",
                        names[k], res.timing[k].seconds,
                        runs / res.timing[k].seconds,
                        res.timing[k].cycles / res.timing[k].seconds,
                        static_cast<unsigned long long>(
                            res.timing[k].routerEvals));
        }
        std::printf("  speedup (bitmask vs dense): %.2fx  [%s]\n",
                    res.bitmaskVsDense,
                    res.identical ? "bit-identical" : "MISMATCH");
    }

    JsonValue json;
    json.set("schema", "nocalert-bench-kernel");
    json.set("mesh", mesh);
    json.set("warmup", warmup);
    json.set("observeWindow", observe);
    json.set("runs", runs);
    json.set("identical", identical);
    json.set("sweep", std::move(sweep));
    json.set("minBitmaskVsDense", min_speedup);
    json.set("maxBitmaskVsDense", max_speedup);
    // Free-form provenance (e.g. a before/after note for an
    // optimization this file's numbers record). The perf gate ignores
    // unknown keys, so notes ride along without affecting the floor.
    const std::string notes = cli.getString("notes", "");
    if (!notes.empty())
        json.set("notes", notes);

    std::ofstream file(out_path);
    file << json.dump(2) << "\n";
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::printf("bitmask-vs-dense speedup range: %.2fx - %.2fx\n",
                min_speedup, max_speedup);
    std::printf("wrote %s\n", out_path.c_str());

    return identical ? 0 : 2;
}
