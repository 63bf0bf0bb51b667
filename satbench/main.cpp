/**
 * @file
 * satbench: the end-to-end and per-layer benchmark of satom.
 *
 *   satbench --workload NAME --seed N --seconds S --trace 0|1
 *            --data DIR --work DIR [--trace-out FILE]
 *            [--commit ID] [--rule-c off]
 *   satbench --pin --data DIR
 *
 * An untraced run sets the workload up several times (set-up time is
 * the median of at least five, repeated until a second of set-up has
 * run), warms it up where its ops are short, measures it for S
 * seconds and prints the end-to-end metrics.  A traced run measures
 * the same workload for S/2 seconds untraced, replays exactly the same
 * units with a span around every layer call, and prints the per-layer
 * metrics, the trace coverage and the tracing overhead.  Either way
 * the last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics.
 *
 * `--rule-c off` runs with EnumerationOptions::applyRuleC = false (the
 * paper's TSOtool mode).  Outcome sets stay the same, because the
 * engine then detects the Figure 5 violation late and rolls the fork
 * back; litmus-library must report those rollbacks under
 * non-speculative models as failures, which shows the correctness
 * check is not vacuous.  `--pin` regenerates the pinned references
 * under DIR/refs.
 */

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "workloads.hpp"

#ifndef SATBENCH_BUILD_TYPE
#define SATBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace satbench;

/**
 * Set-up repeats: at least kMinSetups, and more until kSetupSeconds of
 * set-up have run, so a set-up of a few milliseconds is timed as often
 * as needed for a steady median; at most kMaxSetups.
 */
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 2000;
constexpr double kSetupSeconds = 1.0;

/** End-to-end metrics, reported by untraced runs of every workload. */
const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},      {"op_p90_ms", "ms"},
    {"cpu_ms_per_op", "ms"},  {"peak_rss_mb", "MB"},
};

/**
 * Per-layer metrics, reported by traced runs of every workload (0
 * where the workload does not reach the layer).  Additive counts and
 * times are per op; ratios, percentiles and maxima are as named.
 */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"litmus.parse_ms", "ms"},
    {"model.parse_ms", "ms"},
    {"enumerate.busy_ms", "ms"},
    {"enumerate.calls", "count"},
    {"enumerate.batch_cpu_util", "ratio"},
    {"enumerate.states_explored", "count"},
    {"enumerate.states_generated", "count"},
    {"enumerate.states_deduped", "count"},
    {"enumerate.dedup_ratio", "ratio"},
    {"enumerate.forks_per_state", "ratio"},
    {"enumerate.us_per_state", "us"},
    {"enumerate.rollbacks", "count"},
    {"enumerate.executions", "count"},
    {"enumerate.finalize_closes", "count"},
    {"enumerate.max_graph_nodes", "count"},
    {"core.closure_runs", "count"},
    {"core.closure_iterations", "count"},
    {"core.closure_edges", "count"},
    {"core.closure_frontier_loads", "count"},
    {"core.closure_frontier_skipped", "count"},
    {"core.candidate_sets", "count"},
    {"enumerate.waves", "count"},
    {"enumerate.wave_items", "count"},
    {"enumerate.steals", "count"},
    {"enumerate.wave_occupancy_pct", "%"},
    {"enumerate.wave_cpu_util", "ratio"},
    {"fuzz.generate_ms", "ms"},
    {"fuzz.oracle.sc-operational_ms", "ms"},
    {"fuzz.oracle.tso-operational_ms", "ms"},
    {"fuzz.oracle.inclusion_ms", "ms"},
    {"fuzz.oracle.spec-inclusion_ms", "ms"},
    {"fuzz.oracle.wmm-recheck_ms", "ms"},
    {"baseline.operational_states", "count"},
    {"baseline.operational_steps", "count"},
    {"fuzz.oracle_runs", "count"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.canon_ms", "ms"},
    {"service.admit_us_p50", "us"},
    {"service.admit_us_p90", "us"},
    {"service.queue_wait_us_p50", "us"},
    {"service.queue_wait_us_p90", "us"},
    {"service.service_time_us_p50", "us"},
    {"service.service_time_us_p90", "us"},
    {"service.jobs_admitted", "count"},
    {"service.jobs_served", "count"},
    {"service.jobs_shed", "count"},
    {"service.jobs_stale", "count"},
    {"service.jobs_faulted", "count"},
    {"service.queue_depth_peak", "count"},
    {"service.read_only_trips", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

constexpr double kMinCoverage = 0.9;

int
usage()
{
    std::fprintf(stderr,
                 "usage: satbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --data DIR --work DIR\n"
                 "                [--trace-out FILE] [--commit ID] "
                 "[--rule-c off]\n"
                 "       satbench --pin --data DIR\n");
    return 2;
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<std::pair<const char *, const char *>> &spec,
            const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (const auto &[name, unit] : spec) {
        const auto it = values.find(name);
        out += std::string(out.size() > 1 ? ", " : "") + quote(name) +
               ": {\"value\": " + num(it == values.end() ? 0 : it->second) +
               ", \"unit\": " + quote(unit) + "}";
    }
    return out + "}";
}

std::string
mapJson(const std::map<std::string, double> &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m)
        out += std::string(out.size() > 1 ? ", " : "") + quote(k) + ": " +
               num(v);
    return out + "}";
}

int
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return CPU_COUNT(&set);
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/**
 * Wall seconds of each repeated set-up.  With a tracer, one more traced
 * set-up follows, so the workload runs on a traced set-up.
 */
std::vector<double>
timedSetups(Workload &w, Tracer *tr)
{
    std::vector<double> s;
    double total = 0;
    while (static_cast<int>(s.size()) < kMaxSetups &&
           (static_cast<int>(s.size()) < kMinSetups || total < kSetupSeconds)) {
        const auto t0 = Clock::now();
        w.setup(nullptr);
        s.push_back(secondsBetween(t0, Clock::now()));
        total += s.back();
    }
    if (tr)
        w.setup(tr);
    return s;
}

void
printFailures(const Phase &ph)
{
    for (const auto &f : ph.failures)
        std::printf("satbench-failure %s\n", f.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Context ctx;
    std::string workload;
    std::string traceOut;
    std::string commit = "unknown";
    double seconds = 0;
    int trace = -1;
    bool pin = false;
    long seed = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (a == "--pin") {
            pin = true;
            continue;
        }
        if (!v)
            return usage();
        ++i;
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtol(v, nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(v, nullptr);
        else if (a == "--trace")
            trace = std::atoi(v);
        else if (a == "--data")
            ctx.dataDir = v;
        else if (a == "--work")
            ctx.workDir = v;
        else if (a == "--trace-out")
            traceOut = v;
        else if (a == "--commit")
            commit = v;
        else if (a == "--rule-c")
            ctx.ruleC = std::string(v) != "off";
        else
            return usage();
    }
    if (ctx.dataDir.empty())
        return usage();
    const int cpus = hostCpus();
    ctx.workers = cpus < 4 ? cpus : 4;

    try {
        if (pin)
            return pinReferences(ctx);
        if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1) ||
            ctx.workDir.empty())
            return usage();
        ctx.seed = static_cast<std::uint32_t>(seed);
        auto w = makeWorkload(workload, ctx);
        if (!w)
            return usage();

        std::printf(
            "satbench-meta {\"workload\": %s, \"seed\": %ld, \"seconds\": "
            "%s, \"trace\": %d, \"nproc\": %d, \"workers\": %d, "
            "\"compiler\": %s, \"build_type\": %s, \"satom_stats\": %s, "
            "\"commit\": %s, \"rule_c\": %s}\n",
            quote(workload).c_str(), seed, num(seconds).c_str(), trace,
            cpus, ctx.workers, quote(compiler()).c_str(),
            quote(SATBENCH_BUILD_TYPE).c_str(),
            satom::stats::enabled() ? "true" : "false",
            quote(commit).c_str(), ctx.ruleC ? "true" : "false");

        std::map<std::string, double> metrics;
        long attempted = 0;
        long failed = 0;
        Tracer tracer(Clock::now());
        const std::vector<double> setups =
            timedSetups(*w, trace ? &tracer : nullptr);
        if (w->warmupSeconds() > 0) {
            const Phase warm = w->run(w->warmupSeconds(), 0, nullptr);
            attempted += warm.attempted;
            failed += warm.failed;
            printFailures(warm);
        }
        if (trace == 0) {
            const Phase ph = w->run(seconds, 0, nullptr);
            const double ops = static_cast<double>(ph.attempted);
            metrics["setup_s"] = percentile(setups, 0.5);
            metrics["ops_per_s"] =
                static_cast<double>(ph.attempted - ph.failed) / ph.wallS;
            metrics["op_p50_ms"] = percentile(ph.latencyMs, 0.5);
            metrics["op_p90_ms"] = percentile(ph.latencyMs, 0.9);
            metrics["cpu_ms_per_op"] = ph.cpuS * 1e3 / ops;
            metrics["peak_rss_mb"] = peakRssMb();
            attempted += ph.attempted;
            failed += ph.failed;
            std::map<std::string, double> detail = ph.detail;
            detail["fail_ratio"] = static_cast<double>(ph.failed) / ops;
            detail["ops"] = ops;
            detail["units"] = static_cast<double>(ph.units);
            detail["wall_s"] = ph.wallS;
            detail["setup_reps"] = static_cast<double>(setups.size());
            std::printf("satbench-detail %s\n", mapJson(detail).c_str());
            printFailures(ph);
        } else {
            const Phase base = w->run(seconds / 2, 0, nullptr);
            Phase ph = w->run(0, base.units, &tracer);
            w->finish(&tracer, ph);
            metrics = ph.layer;
            metrics["trace.coverage"] = tracer.coverage(ph.start, ph.end);
            metrics["trace.overhead"] =
                (ph.wallS / static_cast<double>(ph.units)) /
                (base.wallS / static_cast<double>(base.units));
            attempted += base.attempted + ph.attempted;
            failed += base.failed + ph.failed;
            std::map<std::string, double> layers;
            for (const auto &[layer, t] : tracer.layerTimes()) {
                layers[layer + ".total_ms"] = t.first;
                layers[layer + ".self_ms"] = t.second;
            }
            std::printf("satbench-layers %s\n", mapJson(layers).c_str());
            if (metrics["trace.coverage"] < kMinCoverage)
                std::printf("satbench-warning trace.coverage %s < %s on "
                            "%s: the layer spans miss part of the timed "
                            "phase\n",
                            num(metrics["trace.coverage"]).c_str(),
                            num(kMinCoverage).c_str(), workload.c_str());
            if (!traceOut.empty() && !tracer.writeChromeTrace(traceOut))
                std::fprintf(stderr, "satbench: cannot write %s\n",
                             traceOut.c_str());
            printFailures(base);
            printFailures(ph);
        }
        std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                    "\"metrics\": %s}\n",
                    failed == 0 ? "true" : "false", attempted, failed,
                    metricsJson(trace == 0 ? kEndToEnd : kPerLayer, metrics)
                        .c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "satbench: %s\n", e.what());
        return 1;
    }
}
