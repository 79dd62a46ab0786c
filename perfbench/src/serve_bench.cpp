/**
 * @file
 * serve-resubmit: an in-process CampaignServer (journal and cache
 * under the state directory) driven over its Unix socket by one
 * client, closed loop, one request in flight. Misses run K distinct
 * specs; each miss is followed by a burst of hits (resubmit answered
 * `cached`, then fetch) round-robin over the specs completed so far.
 * Then the daemon restarts repeatedly over the state the misses left,
 * and after each restart the client fetches every spec. The host's
 * speed drifts over seconds, so the hit bursts sit between the misses,
 * spread over the whole run like the miss timing, rather than in one
 * burst of a fraction of a second that samples a single host state.
 */
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "benches.hpp"
#include "fault/serialize.hpp"
#include "layers.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "util/log.hpp"

namespace perfbench {

using namespace nocalert;

namespace {

/** Blocking newline-delimited JSON connection to the daemon. */
class Client
{
  public:
    explicit Client(const std::string &path)
    {
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        if (path.size() >= sizeof(address.sun_path))
            NOCALERT_FATAL("perfbench: socket path too long: ", path);
        std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<const sockaddr *>(&address),
                      sizeof(address)) != 0)
            NOCALERT_FATAL("perfbench: connect ", path, ": ",
                           std::strerror(errno));
    }
    ~Client() { ::close(fd_); }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Send one request and read the next reply line. */
    JsonValue call(const JsonValue &request)
    {
        send(request);
        return read();
    }

    void send(const JsonValue &request)
    {
        const std::string line = request.dump() + "\n";
        std::size_t done = 0;
        while (done < line.size()) {
            const ssize_t n = ::send(fd_, line.data() + done,
                                     line.size() - done, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                NOCALERT_FATAL("perfbench: send: ", std::strerror(errno));
            done += static_cast<std::size_t>(n);
        }
    }

    JsonValue read()
    {
        for (;;) {
            if (const auto line = framer_.next()) {
                if (auto json = parseJson(line->text))
                    return *json;
                NOCALERT_FATAL("perfbench: unparseable reply line");
            }
            char buffer[65536];
            const ssize_t got = ::recv(fd_, buffer, sizeof(buffer), 0);
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0)
                NOCALERT_FATAL("perfbench: daemon closed the connection");
            framer_.feed(
                std::string_view(buffer, static_cast<std::size_t>(got)));
        }
    }

  private:
    int fd_ = -1;
    serve::LineFramer framer_;
};

std::string
member(const JsonValue &json, const char *key)
{
    const JsonValue *v = json.find(key);
    return v && v->isString() ? v->string() : std::string();
}

bool
flag(const JsonValue &json, const char *key)
{
    const JsonValue *v = json.find(key);
    return v && v->isBool() && v->boolean();
}

JsonValue
request(const char *type, const std::string &id = {})
{
    JsonValue json;
    json.set("type", type);
    if (!id.empty())
        json.set("id", id);
    return json;
}

JsonValue
submitRequest(const fault::CampaignConfig &spec)
{
    JsonValue json = request("submit");
    json.set("config", fault::toJson(spec));
    json.set("detach", true);
    return json;
}

/** The artifact of a `result` reply, or nothing. */
std::optional<std::string>
artifactOf(const JsonValue &reply)
{
    if (member(reply, "type") != "result")
        return std::nullopt;
    return member(reply, "artifact");
}

/** One closed-loop hit: resubmit @p spec (must reply `cached` with
 *  @p id), then fetch its artifact (must equal @p artifact). Appends
 *  the round trip in milliseconds to @p hit_ms. */
void
hit(Client &client, const fault::CampaignConfig &spec, const std::string &id,
    const std::string &artifact, std::vector<double> &hit_ms,
    Report &report)
{
    const Clock::time_point t0 = Clock::now();
    const JsonValue submitted = client.call(submitRequest(spec));
    const auto fetched = artifactOf(client.call(request("result", id)));
    hit_ms.push_back(secondsBetween(t0, Clock::now()) * 1e3);
    report.check(flag(submitted, "cached") && member(submitted, "id") == id &&
                     fetched == artifact,
                 "hit on " + id + " was not a byte-identical cached reply");
}

std::unique_ptr<serve::CampaignServer>
startServer(const serve::ServerConfig &config)
{
    auto server = std::make_unique<serve::CampaignServer>(config);
    std::string error;
    if (!server->start(&error))
        NOCALERT_FATAL("perfbench: daemon start: ", error);
    return server;
}

} // namespace

void
runServeWorkload(const ServeWorkload &w, bool traced,
                 const std::string &state_dir, Tracer &tracer,
                 Report &report)
{
    serve::ServerConfig config;
    config.socketPath = state_dir + "/d.sock";
    config.cacheDir = state_dir + "/cache";
    config.registry.jobs = w.jobs;

    std::size_t planned = 0;
    for (const fault::CampaignConfig &spec : w.specs)
        planned += spec.maxSites;

    // ---- Misses: each spec submitted, watched to done, fetched ----
    auto server = startServer(config);
    std::vector<std::string> ids;
    std::vector<std::string> artifacts;
    std::uint64_t telemetryEvents = 0;
    double missS = 0.0;
    std::vector<double> hitMs;
    std::vector<CampaignTiming> inProcess; // Traced run only.
    {
        Client client(config.socketPath);
        for (const fault::CampaignConfig &spec : w.specs) {
            const Clock::time_point t0 = Clock::now();
            const JsonValue submitted = client.call(submitRequest(spec));
            const std::string id = member(submitted, "id");
            report.check(member(submitted, "type") == "submitted" &&
                             !flag(submitted, "cached"),
                         "miss submit was not a fresh submission");
            client.send(request("watch", id));
            for (;;) {
                const JsonValue event = client.read();
                const std::string type = member(event, "type");
                if (type == "telemetry")
                    ++telemetryEvents;
                if (type == "done") {
                    report.check(member(event, "state") == "complete",
                                 "campaign " + id + " ended " +
                                     member(event, "state"));
                    break;
                }
                if (type == "error") {
                    report.fail("watch " + id + ": " +
                                member(event, "message"));
                    break;
                }
            }
            const auto artifact =
                artifactOf(client.call(request("result", id)));
            missS += secondsBetween(t0, Clock::now());
            report.check(artifact.has_value(), "no artifact for " + id);
            ids.push_back(id);
            artifacts.push_back(artifact.value_or(""));
            report.digest("serve-resubmit/" + std::to_string(ids.size() - 1),
                          artifactDigest(artifacts.back()));
            if (!traced)
                for (unsigned h = 0; h < w.hitsAfterMiss; ++h) {
                    const std::size_t i = h % ids.size();
                    hit(client, w.specs[i], ids[i], artifacts[i], hitMs,
                        report);
                }
            if (traced) {
                // The same spec in-process right after the daemon ran it,
                // so host drift hits both sides of the overhead ratio
                // alike; its artifact must match the daemon's byte for
                // byte.
                fault::CampaignConfig local = spec;
                local.jobs = w.jobs;
                inProcess.push_back(timeCampaign(local));
                report.check(inProcess.back().artifact == artifacts.back(),
                             "daemon artifact " + id +
                                 " differs from the in-process campaign");
            }
        }
    }
    // The hits between misses must not have simulated anything either.
    const std::uint64_t executed = server->registry().stats().runsExecuted;
    report.attempted(executed);
    if (executed != planned)
        report.fail("daemon executed " + std::to_string(executed) +
                    " runs, planned " + std::to_string(planned));
    const double daemonRate = static_cast<double>(executed) / missS;

    if (traced) {
        server->stop();
        server.reset();
        double runs = 0.0;
        double seconds = 0.0;
        double setup = 0.0;
        double utilization = 0.0;
        for (const CampaignTiming &t : inProcess) {
            runs += static_cast<double>(t.result.runs.size());
            seconds += t.totalS;
            setup += t.setupS;
            utilization += t.workerUtilization;
        }
        LayerMetrics layers;
        // Every quantum but the last sends a telemetry event; the last
        // one sends the done event instead.
        layers.serveQuantaPerCampaign =
            static_cast<double>(telemetryEvents) /
                static_cast<double>(w.specs.size()) +
            1.0;
        layers.serveDaemonOverheadFrac = 1.0 - daemonRate / (runs / seconds);
        layers.execWorkerUtilization =
            utilization / static_cast<double>(inProcess.size());
        layers.execSerialSetupShare = setup / seconds;
        // Replaying two of the specs (48 runs) sizes the traced run to
        // fit its time limit on a slow host; runSingle is still sampled
        // 100 times.
        traceCampaigns({&inProcess[0], &inProcess[1]}, tracer, layers,
                       report);
        probeArtifact(inProcess.front(), state_dir, layers, report);
        layers.emit(report);
        return;
    }

    server->stop();
    server.reset();

    // ---- Restarts over the same state; after each, fetch every spec ----
    // Replay compacts the journal, so every restart starts from a copy
    // of the state the misses left: each one replays and re-verifies
    // the same completed submissions.
    namespace fs = std::filesystem;
    const std::string pristine = state_dir + "/cache.pristine";
    fs::copy(config.cacheDir, pristine, fs::copy_options::recursive);
    std::vector<double> restartS;
    for (unsigned r = 0; r < w.restarts; ++r) {
        fs::remove_all(config.cacheDir);
        fs::copy(pristine, config.cacheDir, fs::copy_options::recursive);
        const Clock::time_point t0 = Clock::now();
        server = startServer(config);
        Client client(config.socketPath);
        const JsonValue pong = client.call(request("ping"));
        restartS.push_back(secondsBetween(t0, Clock::now()));
        report.check(member(pong, "type") == "pong", "restart: no pong");
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const auto artifact =
                artifactOf(client.call(request("result", ids[i])));
            report.check(artifact == artifacts[i],
                         "after restart " + std::to_string(r) + ", " +
                             ids[i] + " served different bytes");
        }
        const serve::RecoveryInfo recovered = server->registry().recovery();
        report.check(recovered.completedVerified == ids.size() &&
                         server->registry().stats().runsExecuted == 0,
                     "restart did not restore every completed campaign");
        server->stop();
        server.reset();
    }

    report.metric("runs_per_s", daemonRate, "runs/s");
    report.metric("setup_s", median(restartS), "s");
    report.metric("hit_ms_p50", blockPercentile(hitMs, 0.5), "ms");
    report.metric("hit_ms_p90", blockPercentile(hitMs, 0.9), "ms");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace perfbench
