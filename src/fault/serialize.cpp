#include "fault/serialize.hpp"

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/sampled.hpp"
#include "util/fsio.hpp"

namespace nocalert::fault {

namespace {

// ------------------------------------------------------- field lists
//
// Every serialized struct has exactly one field list: an overload
// fields(s, f) that calls f(key, member) for each member in document
// order. ObjectWriter walks it to emit JSON and ObjectReader walks it
// to read JSON back, so a key is spelled once and writer and reader
// cannot drift apart. Besides plain fields a list may use
//
//   f.name(what)                 names the struct in reader errors
//   f(key, member, check)        check(key, member) returns an error
//                                (empty = fine); only the reader runs it
//   f.optional(key, member, on)  written iff `on`, read iff present
//   f.either(a, ma, b, mb, useA) exactly one of two alternative keys
//
// and ordinary control flow over members visited earlier (the reader
// has filled them in by then). A check(s, reader) overload, where
// present, holds the cross-field checks the reader applies after the
// walk.

/** The writer walks const structs, the reader mutable ones. */
template <typename S, typename T>
concept Like = std::same_as<std::remove_const_t<S>, T>;

/** How an enum travels: by name. */
template <typename E>
struct EnumNames
{
    const char *what; ///< For "unknown <what> '<name>'" errors.
    const char *(*name)(E);
    std::optional<E> (*parse)(std::string_view);
};

// One overload per serialized enum; the argument only selects it.
constexpr EnumNames<noc::RoutingAlgo>
enumNames(noc::RoutingAlgo)
{
    return {"routing algorithm", noc::routingAlgoName,
            noc::routingAlgoFromName};
}

constexpr EnumNames<noc::TrafficPattern>
enumNames(noc::TrafficPattern)
{
    return {"traffic pattern", noc::trafficPatternName,
            noc::trafficPatternFromName};
}

constexpr EnumNames<nocalert::traffic::WorkloadKind>
enumNames(nocalert::traffic::WorkloadKind)
{
    return {"workload kind", nocalert::traffic::workloadKindName,
            nocalert::traffic::workloadKindFromName};
}

constexpr EnumNames<FaultKind>
enumNames(FaultKind)
{
    return {"fault kind", faultKindName, faultKindFromName};
}

constexpr EnumNames<SignalClass>
enumNames(SignalClass)
{
    return {"signal class", signalClassName, signalClassFromName};
}

constexpr EnumNames<Stratify>
enumNames(Stratify)
{
    return {"stratification", stratifyName, stratifyFromName};
}

constexpr EnumNames<stats::IntervalMethod>
enumNames(stats::IntervalMethod)
{
    return {"interval method", stats::intervalMethodName,
            stats::intervalMethodFromName};
}

// JSON arrays: vectors take any length, std::arrays exactly N.
template <typename T>
constexpr bool kIsVector = false;
template <typename E>
constexpr bool kIsVector<std::vector<E>> = true;
template <typename T>
constexpr bool kIsArray = false;
template <typename E, std::size_t N>
constexpr bool kIsArray<std::array<E, N>> = true;

// ------------------------------------------------------------- writer

/** Which conditional parts of a document a writer walk emits. */
struct WriteMode
{
    bool drawTags = false;      ///< Runs carry the v5 stratum/seedIndex.
    bool executionKnobs = true; ///< Kernel choice and shard selector.
};

template <typename T>
JsonValue writeObject(T &value, WriteMode mode);

/** Appends each visited member to one JSON object, in list order. */
class ObjectWriter
{
  public:
    ObjectWriter(JsonValue &json, WriteMode mode)
        : drawTags(mode.drawTags), executionKnobs(mode.executionKnobs),
          json_(json)
    {
    }

    const bool drawTags;
    const bool executionKnobs;

    void name(const char *) {}

    template <typename T, typename... Check>
    void operator()(const char *key, const T &value, Check &&...)
    {
        json_.set(key, write(value));
    }

    template <typename T>
    void optional(const char *key, const T &value, bool present)
    {
        if (present)
            (*this)(key, value);
    }

    template <typename A, typename B>
    void either(const char *a_key, const A &a, const char *b_key,
                const B &b, bool use_a)
    {
        if (use_a)
            (*this)(a_key, a);
        else
            (*this)(b_key, b);
    }

  private:
    template <typename T>
    JsonValue write(const T &value) const
    {
        if constexpr (std::is_same_v<T, core::InvariantId>) {
            return core::invariantIndex(value);
        } else if constexpr (std::is_enum_v<T>) {
            return enumNames(T{}).name(value);
        } else if constexpr (std::is_arithmetic_v<T> ||
                             std::is_same_v<T, std::string> ||
                             std::is_same_v<T, JsonValue>) {
            return value;
        } else if constexpr (kIsVector<T> || kIsArray<T>) {
            JsonValue array = JsonValue(JsonValue::Array{});
            for (const auto &element : value)
                array.push(write(element));
            return array;
        } else if constexpr (std::is_same_v<T, Histogram>) {
            JsonValue points = JsonValue(JsonValue::Array{});
            for (const auto &[point, count] : value.points()) {
                JsonValue pair = JsonValue(JsonValue::Array{});
                pair.push(point);
                pair.push(count);
                points.push(std::move(pair));
            }
            return points;
        } else {
            return writeObject(value, WriteMode{drawTags, executionKnobs});
        }
    }

    JsonValue &json_;
};

template <typename T>
JsonValue
writeObject(T &value, WriteMode mode)
{
    JsonValue json;
    ObjectWriter writer(json, mode);
    fields(value, writer);
    return json;
}

// ------------------------------------------------------------- reader

template <typename T>
void readObject(const JsonValue &json, T &out, std::string &error);

/**
 * Reads each visited member from one JSON object. First error wins:
 * after a failure every later field is skipped, so a reader checks
 * the shared error slot once at the end. Errors name the struct
 * (`what`) and the field.
 */
class ObjectReader
{
  public:
    ObjectReader(const JsonValue &json, std::string &error)
        : json_(json), error_(error)
    {
    }

    void name(const char *what)
    {
        what_ = what;
        if (!json_.isObject())
            fail(what_ + " is not a JSON object");
    }

    // The reader takes optional members wherever present and always
    // reads the execution knobs.
    static constexpr bool drawTags = true;
    static constexpr bool executionKnobs = true;

    bool ok() const { return error_.empty(); }

    void fail(const std::string &message)
    {
        if (error_.empty())
            error_ = message;
    }

    template <typename T, typename... Check>
    void operator()(const char *key, T &out, Check &&...check)
    {
        if (!ok())
            return;
        if (const JsonValue *value = json_.find(key))
            read(*value, key, out);
        else
            fail(what_ + " is missing field '" + key + "'");
        if (ok())
            (fail(check(key, std::as_const(out))), ...); // "" = fine
    }

    template <typename T>
    void optional(const char *key, T &out, bool)
    {
        if (ok() && json_.find(key))
            (*this)(key, out);
    }

    template <typename A, typename B>
    void either(const char *a_key, A &a, const char *b_key, B &b, bool)
    {
        if (json_.find(a_key) && json_.find(b_key))
            fail(what_ + " has both a " + a_key + " and a " + b_key +
                 " block");
        else if (json_.find(b_key))
            (*this)(b_key, b);
        else
            (*this)(a_key, a);
    }

  private:
    /** "[min, max]" of an integer type. */
    template <typename T>
    static std::string range()
    {
        return "[" + std::to_string(std::numeric_limits<T>::min()) + ", " +
               std::to_string(std::numeric_limits<T>::max()) + "]";
    }

    std::string fieldError(const char *key, const std::string &expected)
    {
        return what_ + " field '" + key + "' must be " + expected;
    }

    template <typename T>
    void read(const JsonValue &value, const char *key, T &out)
    {
        using Type = JsonValue::Type;
        if constexpr (std::is_same_v<T, bool>) {
            if (!value.isBool())
                return fail(fieldError(key, "a boolean"));
            out = value.boolean();
        } else if constexpr (std::is_integral_v<T>) {
            // JsonValue holds integers above INT64_MAX as Uint, all
            // others as Int.
            const bool is_uint = value.type() == Type::Uint;
            const bool is_int = value.type() == Type::Int;
            if (!(is_uint && std::in_range<T>(value.asUint())) &&
                !(is_int && std::in_range<T>(value.asInt())))
                return fail(fieldError(key, "an integer in " + range<T>()));
            out = is_uint ? static_cast<T>(value.asUint())
                          : static_cast<T>(value.asInt());
        } else if constexpr (std::is_same_v<T, double>) {
            if (!value.isNumber())
                return fail(fieldError(key, "a number"));
            out = value.asDouble();
        } else if constexpr (std::is_same_v<T, std::string>) {
            if (!value.isString())
                return fail(fieldError(key, "a string"));
            out = value.string();
        } else if constexpr (std::is_same_v<T, JsonValue>) {
            out = value;
        } else if constexpr (std::is_same_v<T, core::InvariantId>) {
            if (value.type() != Type::Int || value.asInt() < 1 ||
                value.asInt() >
                    static_cast<std::int64_t>(core::kNumInvariants))
                return fail(fieldError(key, "an invariant index"));
            out = static_cast<core::InvariantId>(value.asInt());
        } else if constexpr (std::is_enum_v<T>) {
            constexpr EnumNames<T> names = enumNames(T{});
            if (!value.isString())
                return fail(fieldError(key, "a string"));
            if (auto parsed = names.parse(value.string()))
                out = *parsed;
            else
                fail(std::string("unknown ") + names.what +
                     " '" + value.string() + "'");
        } else if constexpr (kIsVector<T> || kIsArray<T>) {
            if (!value.isArray())
                return fail(fieldError(key, "an array"));
            const JsonValue::Array &elements = value.array();
            if constexpr (kIsArray<T>) {
                const std::string expected =
                    "an array of " + std::to_string(out.size()) + " entries";
                if (elements.size() != out.size())
                    return fail(fieldError(key, expected));
            } else {
                out.assign(elements.size(), typename T::value_type{});
            }
            for (std::size_t i = 0; ok() && i < elements.size(); ++i)
                read(elements[i], key, out[i]);
        } else {
            readObject(value, out, error_);
        }
    }

    const JsonValue &json_;
    std::string what_;
    std::string &error_;
};

template <typename T>
void
readObject(const JsonValue &json, T &out, std::string &error)
{
    ObjectReader reader(json, error);
    fields(out, reader);
    if constexpr (requires { check(out, reader); }) {
        if (reader.ok())
            check(out, reader);
    }
}

template <typename T>
std::optional<T>
finish(T value, std::string &error, std::string *out_error)
{
    if (error.empty())
        return value;
    if (out_error)
        *out_error = error;
    return std::nullopt;
}

/** Read a whole top-level @p T (nullopt + *out_error on failure). */
template <typename T>
std::optional<T>
readTop(const JsonValue &json, std::string *out_error)
{
    std::string error;
    T value;
    readObject(json, value, error);
    return finish(std::move(value), error, out_error);
}

// ------------------------------------------------------- network

template <Like<noc::MessageClassSpec> S, typename F>
void
fields(S &cls, F &f)
{
    f.name("message class");
    f("name", cls.name);
    f("packetLength", cls.packetLength);
}

template <Like<noc::RouterParams> S, typename F>
void
fields(S &router, F &f)
{
    f.name("router params");
    f("numVcs", router.numVcs);
    f("bufferDepth", router.bufferDepth);
    f("atomicBuffers", router.atomicBuffers);
    f("speculative", router.speculative);
    f("flitWidthBits", router.flitWidthBits);
    f("extendedChecks", router.extendedChecks);
    f("classes", router.classes);
}

template <Like<noc::RetransmitParams> S, typename F>
void
fields(S &retransmit, F &f)
{
    f.name("retransmit params");
    f("enabled", retransmit.enabled);
    f("ackTimeout", retransmit.ackTimeout);
    f("maxRetries", retransmit.maxRetries);
    f("backoffCap", retransmit.backoffCap);
}

template <Like<noc::NetworkConfig> S, typename F>
void
fields(S &network, F &f)
{
    f.name("network config");
    f("width", network.width);
    f("height", network.height);
    f("routing", network.routing);
    f("router", network.router);
    f("retransmit", network.retransmit);
}

// ------------------------------------------------------- workloads

template <Like<noc::TrafficSpec> S, typename F>
void
fields(S &traffic, F &f)
{
    f.name("traffic spec");
    f("pattern", traffic.pattern);
    f("injectionRate", traffic.injectionRate);
    f("seed", traffic.seed);
    f("stopCycle", traffic.stopCycle);
    f("classWeights", traffic.classWeights);
    // The hotspot parameters live in their own sub-spec in memory
    // (noc::HotspotSpec) but keep the legacy flat keys on disk, so
    // every artifact ever written round-trips byte-identically.
    f("hotspot", traffic.hotspot.node);
    f("hotspotFraction", traffic.hotspot.fraction);
}

template <Like<nocalert::traffic::PhaseSegment> S, typename F>
void
fields(S &segment, F &f)
{
    f.name("phase segment");
    f("begin", segment.begin);
    f("end", segment.end);
    f("pattern", segment.pattern);
    f("rate", segment.rate);
    f("classWeights", segment.classWeights);
    f("hotspot", segment.hotspot.node);
    f("hotspotFraction", segment.hotspot.fraction);
}

template <Like<nocalert::traffic::BurstSpec> S, typename F>
void
fields(S &burst, F &f)
{
    f.name("burst spec");
    f("enabled", burst.enabled);
    f("period", burst.period);
    f("onProbability", burst.onProbability);
    f("onMultiplier", burst.onMultiplier);
    f("offMultiplier", burst.offMultiplier);
    f("layers", burst.layers);
}

template <Like<nocalert::traffic::PhasedSpec> S, typename F>
void
fields(S &phased, F &f)
{
    f.name("phased workload");
    f("segments", phased.segments);
    f("burst", phased.burst);
    f("seed", phased.seed);
    f("stopCycle", phased.stopCycle);
    f("repeat", phased.repeat);
}

template <Like<nocalert::traffic::TraceSpec> S, typename F>
void
fields(S &trace, F &f)
{
    f.name("trace workload");
    f("path", trace.path);
    f("digest", trace.digest);
    f("records", trace.records);
    f("stopCycle", trace.stopCycle);
}

/**
 * The `workload` block of schema-v6 configs. Only the active backend
 * is emitted — the inactive specs are defaults by construction, so
 * identity hashing never keys on dead fields.
 */
template <Like<nocalert::traffic::WorkloadSpec> S, typename F>
void
fields(S &workload, F &f)
{
    f.name("workload spec");
    f("kind", workload.kind);
    switch (workload.kind) {
      case nocalert::traffic::WorkloadKind::Synthetic:
        f("synthetic", workload.synthetic);
        break;
      case nocalert::traffic::WorkloadKind::Phased:
        f("phased", workload.phased);
        break;
      case nocalert::traffic::WorkloadKind::Trace:
        f("trace", workload.trace);
        break;
    }
}

// ------------------------------------------------------- campaign

template <Like<forever::ForeverConfig> S, typename F>
void
fields(S &config, F &f)
{
    f.name("forever config");
    f("epochLength", config.epochLength);
    f("hopLatency", config.hopLatency);
    f("useAllocationComparator", config.useAllocationComparator);
    f("useEndToEnd", config.useEndToEnd);
}

template <Like<SamplingSpec> S, typename F>
void
fields(S &spec, F &f)
{
    f.name("sampling spec");
    f("enabled", spec.enabled);
    f("stratify", spec.stratify);
    f("method", spec.method);
    f("confidence", spec.confidence);
    f("ciHalfWidth", spec.ciHalfWidth);
    f("maxRuns", spec.maxRuns);
    f("batchSize", spec.batchSize);
    f("minPerStratum", spec.minPerStratum);
    f("cycleJitter", spec.cycleJitter);
    f("seedCount", spec.seedCount);
    f("reallocate", spec.reallocate);
    f("samplerSeed", spec.samplerSeed);
}

template <Like<CampaignConfig> S, typename F>
void
fields(S &config, F &f)
{
    f.name("campaign config");
    f("network", config.network);
    // Synthetic workloads keep the legacy flat `traffic` block, so
    // every schema-v4/v5 artifact serializes byte-identically to
    // the day it was written; the phased and trace backends emit
    // a `workload` block (schema v6) in the same key position.
    f.either("traffic", config.workload.synthetic, "workload",
             config.workload,
             config.workload.kind ==
                 nocalert::traffic::WorkloadKind::Synthetic);
    f("warmup", config.warmup);
    f("observeWindow", config.observeWindow);
    f("drainLimit", config.drainLimit);
    f("kind", config.kind);
    f("maxSites", config.maxSites);
    f("wireSitesOnly", config.wireSitesOnly);
    f("sampleSeed", config.sampleSeed);
    f("runForever", config.runForever);
    f("forever", config.forever);
    f("recovery", config.recovery);
    // The sampling spec appears only when enabled, so exhaustive
    // configs — and the schema-v4 artifacts they produce —
    // serialize exactly as they did before sampling existed.
    // Every sampling knob is campaign identity (all of them shape
    // the draw stream), so emitting the block here feeds
    // campaignIdentityJson for free.
    f.optional("sampling", config.sampling, config.sampling.enabled);
    // jobs / checkpointPath / checkpointEvery are pure execution knobs
    // with no influence on results; schema v4 keeps them out of the
    // artifact entirely so runs at any --jobs value and checkpoint
    // cadence serialize byte-identically (a loaded config gets their
    // defaults). The kernel choice and the shard selector stay in the
    // artifact (the selector says which runs this document holds) but
    // are not campaign identity: both kernels produce bit-identical
    // results, so shards may mix them freely.
    if (f.executionKnobs) {
        f("denseKernel", config.denseKernel);
        f("shardIndex", config.shardIndex);
        f("shardCount", config.shardCount);
    }
}

void
check(CampaignConfig &config, ObjectReader &reader)
{
    // Malformed workload blocks must be rejected here, before
    // anything (the phase-stratified planner, a resume, a serve
    // submission) consumes them. Synthetic specs keep the legacy
    // lenient load path.
    if (config.workload.kind ==
        nocalert::traffic::WorkloadKind::Synthetic)
        return;
    const std::string workload_error =
        nocalert::traffic::validateWorkloadSpec(config.network,
                                                config.workload);
    if (!workload_error.empty())
        reader.fail("invalid workload spec: " + workload_error);
}

// ----------------------------------------------------------- runs

template <Like<FaultSite> S, typename F>
void
fields(S &site, F &f)
{
    f.name("fault site");
    f("router", site.router);
    f("signal", site.signal);
    f("port", site.port);
    f("vc", site.vc);
    f("bit", site.bit);
}

/**
 * Check of a latency field: a non-negative cycle when its detector
 * (or recovery) fired, else the kNoDetection sentinel.
 */
auto
firedIff(bool fired)
{
    return [fired](const char *key, noc::Cycle latency) {
        if (fired ? latency >= 0 : latency == kNoDetection)
            return std::string();
        return std::string(key) + " inconsistent with its detection flag";
    };
}

template <Like<FaultRunResult> S, typename F>
void
fields(S &run, F &f)
{
    f.name("fault run");
    f("sampleIndex", run.sampleIndex);
    // Draw tags exist only in sampled (schema v5) documents;
    // omitting them keeps exhaustive v4 artifacts byte-identical.
    f.optional("stratum", run.stratum, f.drawTags);
    f.optional("seedIndex", run.seedIndex, f.drawTags);
    f("site", run.site);
    f("injectCycle", run.injectCycle);
    f("violated", run.violated);
    f("violatedConditions", run.violatedConditions);
    f("drained", run.drained);
    f("detected", run.detected);
    f("detectionLatency", run.detectionLatency, firedIff(run.detected));
    f("detectedCautious", run.detectedCautious);
    f("cautiousLatency", run.cautiousLatency,
      firedIff(run.detectedCautious));
    f("alertAtInjection", run.alertAtInjection);
    f("simultaneousCheckers", run.simultaneousCheckers);
    f("invariants", run.invariants);
    f("foreverDetected", run.foreverDetected);
    f("foreverLatency", run.foreverLatency, firedIff(run.foreverDetected));
    f("recovered", run.recovered);
    f("recoveryTriggered", run.recoveryTriggered);
    f("recoveryCycle", run.recoveryCycle, firedIff(run.recoveryTriggered));
    f("recoveryActions", run.recoveryActions);
    f("quarantinedPorts", run.quarantinedPorts);
    f("purgedFlits", run.purgedFlits);
    f("retransmits", run.retransmits);
    f("duplicatesSuppressed", run.duplicatesSuppressed);
    f("packetsAbandoned", run.packetsAbandoned);
}

void
check(const FaultRunResult &run, ObjectReader &reader)
{
    if (run.recovered && !run.detected)
        reader.fail("recovered requires detected");
}

// ---------------------------------------------------- derived blocks

template <Like<CampaignTelemetry> S, typename F>
void
fields(S &telemetry, F &f)
{
    f.name("telemetry");
    f("runsPlanned", telemetry.runsPlanned);
    f("runsCompleted", telemetry.runsCompleted);
    f("outcomes", telemetry.outcomes);
}

template <Like<stats::Interval> S, typename F>
void
fields(S &interval, F &f)
{
    f("lower", interval.lower);
    f("upper", interval.upper);
}

template <Like<StratumEstimate> S, typename F>
void
fields(S &estimate, F &f)
{
    f("name", estimate.name);
    f("population", estimate.population);
    f("draws", estimate.draws);
    f("detected", estimate.detected);
    f("falsePositives", estimate.falsePositives);
    f("falseNegatives", estimate.falseNegatives);
    f("halted", estimate.halted);
    f("detectedWilson", estimate.detectedWilson);
    f("detectedClopperPearson", estimate.detectedClopperPearson);
    f("falsePositiveWilson", estimate.falsePositiveWilson);
    f("falsePositiveClopperPearson",
      estimate.falsePositiveClopperPearson);
    f("falseNegativeWilson", estimate.falseNegativeWilson);
    f("falseNegativeClopperPearson",
      estimate.falseNegativeClopperPearson);
}

template <Like<SamplingReport> S, typename F>
void
fields(S &report, F &f)
{
    f("strata", report.strata);
    f("pooled", report.pooled);
}

template <Like<CampaignSummary> S, typename F>
void
fields(S &summary, F &f)
{
    f("runs", summary.runs);
    f("nocalert", summary.nocalert);
    f("cautious", summary.cautious);
    f("forever", summary.forever);
    f("detectionLatency", summary.detectionLatency);
    f("foreverLatency", summary.foreverLatency);
    f("simultaneous", summary.simultaneous);
    f("perInvariant", summary.perInvariant);
    f("noInstantAlert", summary.noInstantAlert);
    f("noInstantCaughtLater", summary.noInstantCaughtLater);
    f("noInstantBenignUndetected", summary.noInstantBenignUndetected);
    f("noInstantViolatedUndetected",
      summary.noInstantViolatedUndetected);
}

// --------------------------------------------------------- document

std::string
isCampaignSchema(const char *, const std::string &schema)
{
    if (schema == kCampaignSchemaName)
        return std::string();
    return "not a campaign document (schema '" + schema + "')";
}

std::string
isReadableVersion(const char *, std::int64_t version)
{
    if (version >= kCampaignSchemaVersionMin &&
        version <= kCampaignSchemaVersion)
        return std::string();
    return "unsupported campaign schema version " +
           std::to_string(version) + " (expected " +
           std::to_string(kCampaignSchemaVersionMin) + ".." +
           std::to_string(kCampaignSchemaVersion) + ")";
}

/** Check of a result's config against the document's @p version. */
auto
agreesWithVersion(const std::int64_t &version)
{
    return [&version](const char *, const CampaignConfig &config) {
        if (version == campaignSchemaVersionFor(config))
            return std::string();
        return "schema version " + std::to_string(version) +
               " inconsistent with the config's workload and sampling "
               "state";
    };
}

/**
 * A campaign result as stored: the result plus the document header
 * and the two blocks derived from its runs. The writer fills header
 * and derived blocks before the walk; the reader walks into them and
 * checks them against the result it read.
 */
template <typename Result>
struct ResultDocument
{
    Result &result;
    std::string schema;
    std::int64_t version = 0;
    CampaignTelemetry telemetry;
    JsonValue sampling; ///< Sampled documents only.
};

template <typename Result, typename F>
void
fields(ResultDocument<Result> &doc, F &f)
{
    f.name("campaign result");
    auto &result = doc.result;
    f("schema", doc.schema, isCampaignSchema);
    f("version", doc.version, isReadableVersion);
    // The version is determined by the config: 6 iff the workload is
    // non-synthetic, else 5 iff sampled. A document claiming otherwise
    // was hand-edited or corrupted.
    f("config", result.config, agreesWithVersion(doc.version));
    f("totalSitesEnumerated", result.totalSitesEnumerated);
    f("goldenFlits", result.goldenFlits);
    f("shardRunsPlanned", result.shardRunsPlanned);
    const bool sampled = result.config.sampling.enabled;
    if (sampled)
        f("samplerDone", result.samplerDone);
    // Deterministic projection of the runs below — never wall-clock
    // rates, which would break byte-identity across machines/--jobs.
    f("telemetry", doc.telemetry);
    // Like telemetry: derived from committed runs only, so the
    // block is byte-identical for every --jobs value and the
    // reader can recompute it for validation.
    if (sampled)
        f("sampling", doc.sampling);
    f("runs", result.runs);
}

void
check(ResultDocument<CampaignResult> &doc, ObjectReader &reader)
{
    const CampaignResult &result = doc.result;
    for (std::size_t i = 1; i < result.runs.size(); ++i) {
        if (result.runs[i - 1].sampleIndex >=
            result.runs[i].sampleIndex) {
            reader.fail("runs are not in increasing sampleIndex "
                        "order");
            break;
        }
    }
    if (result.runs.size() > result.shardRunsPlanned)
        reader.fail("more runs than shardRunsPlanned");
    // The telemetry block is derived data; a document whose block
    // disagrees with its own runs has been tampered with or
    // corrupted, so reject it rather than silently recompute.
    const CampaignTelemetry expected = computeTelemetry(result);
    if (doc.telemetry.runsPlanned != expected.runsPlanned ||
        doc.telemetry.runsCompleted != expected.runsCompleted ||
        doc.telemetry.outcomes != expected.outcomes)
        reader.fail("telemetry block inconsistent with runs");
    if (!reader.ok() || !result.config.sampling.enabled)
        return;

    // Guard the recomputation below (which enumerates the network
    // and builds a planner) against aborting on nonsense input.
    const CampaignConfig &config = result.config;
    const std::string spec_error =
        validateSamplingSpec(config.sampling, config.observeWindow);
    if (!spec_error.empty())
        reader.fail("invalid sampling spec: " + spec_error);
    if (reader.ok() && config.sampling.stratify == Stratify::Phase &&
        config.workload.kind != nocalert::traffic::WorkloadKind::Phased)
        reader.fail("phase stratification needs a phased workload");
    if (reader.ok() &&
        (config.network.width <= 0 || config.network.height <= 0))
        reader.fail("sampled campaign with an empty mesh");
    if (reader.ok() && sampledPopulation(config).empty())
        reader.fail("sampled campaign with an empty site population");
    if (reader.ok()) {
        const SampledPlanner planner(config, sampledPopulation(config));
        for (const FaultRunResult &run : result.runs) {
            if (run.stratum >= planner.strataCount() ||
                run.seedIndex >= config.sampling.seedCount) {
                reader.fail("run draw tags out of range for the "
                            "sampling spec");
                break;
            }
        }
    }
    // Like telemetry, the sampling report is derived data: reject
    // a document whose stored block disagrees with what its own
    // runs imply.
    if (reader.ok() &&
        doc.sampling != toJson(computeSamplingReport(result)))
        reader.fail("sampling block inconsistent with runs");
}

} // namespace

// ------------------------------------------------------------- config

JsonValue
toJson(const CampaignConfig &config)
{
    return writeObject(config, WriteMode{});
}

JsonValue
campaignIdentityJson(const CampaignConfig &config)
{
    return writeObject(config, WriteMode{false, false});
}

std::string
campaignArtifactHash(const CampaignConfig &config)
{
    const std::string bytes =
        toJson(normalizedCampaignConfig(config)).dump();
    // FNV-1a 64: deterministic across platforms and builds, cheap,
    // and keyed on exact serialized bytes — any knob that can change
    // the artifact changes the key.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return std::string(hex);
}

std::optional<CampaignConfig>
campaignConfigFromJson(const JsonValue &json, std::string *out_error)
{
    return readTop<CampaignConfig>(json, out_error);
}

// ---------------------------------------------------------------- runs

JsonValue
toJson(const FaultRunResult &run, bool sampled)
{
    return writeObject(run, WriteMode{sampled, true});
}

std::optional<FaultRunResult>
faultRunFromJson(const JsonValue &json, std::string *out_error)
{
    return readTop<FaultRunResult>(json, out_error);
}

// -------------------------------------------------------------- result

JsonValue
toJson(const CampaignTelemetry &telemetry)
{
    return writeObject(telemetry, WriteMode{});
}

JsonValue
toJson(const SamplingReport &report)
{
    return writeObject(report, WriteMode{});
}

std::int64_t
campaignSchemaVersionFor(const CampaignConfig &config)
{
    if (config.workload.kind !=
        nocalert::traffic::WorkloadKind::Synthetic)
        return kCampaignSchemaVersion;
    return config.sampling.enabled ? kCampaignSchemaVersionSampled
                                   : kCampaignSchemaVersionMin;
}

JsonValue
toJson(const CampaignResult &result)
{
    const bool sampled = result.config.sampling.enabled;
    ResultDocument<const CampaignResult> doc{
        result, kCampaignSchemaName,
        campaignSchemaVersionFor(result.config), computeTelemetry(result),
        {}};
    if (sampled)
        doc.sampling = toJson(computeSamplingReport(result));
    return writeObject(doc, WriteMode{sampled, true});
}

std::optional<CampaignResult>
campaignResultFromJson(const JsonValue &json, std::string *out_error)
{
    std::string error;
    CampaignResult result;
    ResultDocument<CampaignResult> doc{result, {}, 0, {}, {}};
    readObject(json, doc, error);
    return finish(std::move(result), error, out_error);
}

JsonValue
toJson(const CampaignSummary &summary)
{
    return writeObject(summary, WriteMode{});
}

// ---------------------------------------------------- documents, files

std::string
writeCampaignJson(const CampaignResult &result)
{
    return toJson(result).dump(2) + "\n";
}

std::optional<CampaignResult>
readCampaignJson(std::string_view text, std::string *out_error)
{
    std::string error;
    const std::optional<JsonValue> json = parseJson(text, &error);
    if (!json) {
        if (out_error)
            *out_error = error;
        return std::nullopt;
    }
    return campaignResultFromJson(*json, out_error);
}

bool
saveCampaignResult(const CampaignResult &result, const std::string &path,
                   std::string *out_error)
{
    return writeFileAtomic(path, writeCampaignJson(result), out_error);
}

std::optional<CampaignResult>
loadCampaignResult(const std::string &path, std::string *out_error)
{
    const std::optional<std::string> bytes = readFileBytes(path);
    if (!bytes) {
        if (out_error)
            *out_error = "cannot open '" + path + "'";
        return std::nullopt;
    }
    std::string error;
    auto result = readCampaignJson(*bytes, &error);
    if (!result && out_error)
        *out_error = path + ": " + error;
    return result;
}

// --------------------------------------------------------------- merge

std::optional<CampaignResult>
mergeCampaignShards(std::span<const CampaignResult> shards,
                    std::string *out_error)
{
    std::string error;
    auto fail = [&](const std::string &message) {
        error = message;
        return finish(CampaignResult{}, error, out_error);
    };

    if (shards.empty())
        return fail("no shards to merge");

    const CampaignResult &first = shards.front();
    const unsigned count = std::max(1u, first.config.shardCount);
    if (shards.size() != count)
        return fail("expected " + std::to_string(count) +
                    " shards, got " + std::to_string(shards.size()));

    const JsonValue identity = campaignIdentityJson(first.config);
    std::vector<bool> seen(count, false);

    CampaignResult merged;
    merged.config = first.config;
    merged.config.shardIndex = 0;
    merged.config.shardCount = 1;
    merged.config.checkpointPath.clear();
    merged.totalSitesEnumerated = first.totalSitesEnumerated;
    merged.goldenFlits = first.goldenFlits;
    // Sampled campaigns are single-shard, so that shard's completion
    // flag is the campaign's.
    merged.samplerDone = first.samplerDone;

    for (const CampaignResult &shard : shards) {
        const unsigned index = shard.config.shardIndex;
        if (shard.config.shardCount != count || index >= count)
            return fail("shard selector " + std::to_string(index) + "/" +
                        std::to_string(shard.config.shardCount) +
                        " does not fit a " + std::to_string(count) +
                        "-way campaign");
        if (seen[index])
            return fail("duplicate shard " + std::to_string(index));
        seen[index] = true;
        if (campaignIdentityJson(shard.config) != identity)
            return fail("shard " + std::to_string(index) +
                        " was run with a different campaign config");
        if (!shard.complete())
            return fail("shard " + std::to_string(index) +
                        " is incomplete (" +
                        std::to_string(shard.runs.size()) + " of " +
                        std::to_string(shard.shardRunsPlanned) +
                        " runs)");
        if (shard.totalSitesEnumerated != merged.totalSitesEnumerated ||
            shard.goldenFlits != merged.goldenFlits)
            return fail("shard " + std::to_string(index) +
                        " disagrees on site enumeration or golden "
                        "reference");
        for (const FaultRunResult &run : shard.runs) {
            if (run.sampleIndex % count != index)
                return fail("run with sampleIndex " +
                            std::to_string(run.sampleIndex) +
                            " does not belong to shard " +
                            std::to_string(index));
        }
        merged.shardRunsPlanned += shard.shardRunsPlanned;
        merged.runs.insert(merged.runs.end(), shard.runs.begin(),
                           shard.runs.end());
    }

    std::sort(merged.runs.begin(), merged.runs.end(),
              [](const FaultRunResult &a, const FaultRunResult &b) {
                  return a.sampleIndex < b.sampleIndex;
              });
    for (std::size_t i = 1; i < merged.runs.size(); ++i) {
        if (merged.runs[i - 1].sampleIndex ==
            merged.runs[i].sampleIndex)
            return fail("duplicate sampleIndex " +
                        std::to_string(merged.runs[i].sampleIndex) +
                        " across shards");
    }

    return finish(std::move(merged), error, out_error);
}

} // namespace nocalert::fault
