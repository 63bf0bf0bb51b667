#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "baseline/operational.hpp"
#include "cache/canonical.hpp"
#include "cache/result_cache.hpp"
#include "enumerate/engine.hpp"
#include "fuzz/emit.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "isa/builder.hpp"
#include "litmus/library.hpp"
#include "litmus/parser.hpp"
#include "model/parser.hpp"
#include "service/service.hpp"

namespace satbench
{

namespace fs = std::filesystem;
using namespace satom;
using stats::Ctr;

namespace
{

// ---------------------------------------------------------------- helpers

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path.string());
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Sorted (file name, text) of every @p ext file in @p dir. */
std::vector<std::pair<std::string, std::string>>
readInputs(const fs::path &dir, const std::string &ext)
{
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ext)
            out.emplace_back(e.path().filename().string(),
                             readFile(e.path()));
    std::sort(out.begin(), out.end());
    if (out.empty())
        throw std::runtime_error("no " + ext + " inputs in " +
                                 dir.string());
    return out;
}

/**
 * A pinned reference file: one entry per line, `<key> <value...>`,
 * `#` comments.  The key is the first token.
 */
std::map<std::string, std::string>
readRefs(const fs::path &path)
{
    std::map<std::string, std::string> out;
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto sp = line.find(' ');
        out[line.substr(0, sp)] =
            sp == std::string::npos ? "" : line.substr(sp + 1);
    }
    return out;
}

void
writeRefs(const fs::path &path, const std::string &header,
          const std::vector<std::string> &lines)
{
    std::ofstream os(path);
    os << header;
    for (const auto &l : lines)
        os << l << "\n";
    if (!os)
        throw std::runtime_error("cannot write " + path.string());
}

/**
 * "<count> <digest>" of an outcome set, which both the engine and the
 * operational machines return sorted by Outcome::key().
 */
std::string
outcomeRef(const std::vector<Outcome> &outcomes)
{
    Digest d;
    for (const auto &o : outcomes) {
        d.add(o.regs.size());
        for (const auto &regs : o.regs) {
            d.add(regs.size());
            for (const auto &[r, v] : regs)
                d.add(static_cast<std::uint64_t>(r))
                    .add(static_cast<std::uint64_t>(v));
        }
        d.add(o.memory.size());
        for (const auto &[a, v] : o.memory)
            d.add(static_cast<std::uint64_t>(a))
                .add(static_cast<std::uint64_t>(v));
    }
    return std::to_string(outcomes.size()) + " " + d.hex();
}

std::string
noSpaces(std::string s)
{
    std::replace(s.begin(), s.end(), ' ', '_');
    return s;
}

/** Per-op view of an engine counter registry into Phase::layer. */
void
registryLayers(const stats::StatsRegistry &r, double ops, Phase &ph)
{
    auto per = [&](Ctr c) { return static_cast<double>(r.get(c)) / ops; };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto &L = ph.layer;
    const double explored = static_cast<double>(r.get(Ctr::StatesExplored));
    const double generated =
        static_cast<double>(r.get(Ctr::StatesGenerated));
    L["enumerate.states_explored"] = per(Ctr::StatesExplored);
    L["enumerate.states_generated"] = per(Ctr::StatesGenerated);
    L["enumerate.states_deduped"] = per(Ctr::StatesDeduped);
    L["enumerate.dedup_ratio"] =
        ratio(static_cast<double>(r.get(Ctr::StatesDeduped)), generated);
    L["enumerate.forks_per_state"] = ratio(generated, explored);
    L["enumerate.rollbacks"] = per(Ctr::StatesPruned);
    L["enumerate.executions"] = per(Ctr::Executions);
    L["enumerate.finalize_closes"] = per(Ctr::FinalizationCloses);
    L["enumerate.max_graph_nodes"] =
        static_cast<double>(r.get(Ctr::MaxGraphNodes));
    L["enumerate.waves"] = per(Ctr::Waves);
    L["enumerate.wave_items"] = per(Ctr::WaveItems);
    L["enumerate.steals"] = per(Ctr::Steals);
    L["enumerate.wave_occupancy_pct"] =
        static_cast<double>(r.get(Ctr::WaveOccupancy));
    L["core.closure_runs"] = per(Ctr::ClosureRuns);
    L["core.closure_iterations"] = per(Ctr::ClosureIterations);
    L["core.closure_edges"] = per(Ctr::ClosureEdges);
    L["core.closure_frontier_loads"] = per(Ctr::ClosureFrontierLoads);
    L["core.closure_frontier_skipped"] =
        per(Ctr::ClosureFrontierSkipped);
    L["core.candidate_sets"] = per(Ctr::CandidateSets);
    L["baseline.operational_states"] = per(Ctr::OperationalStates);
    L["baseline.operational_steps"] = per(Ctr::OperationalSteps);
    L["fuzz.oracle_runs"] = per(Ctr::OracleRuns);
    if (L["enumerate.busy_ms"] > 0 && explored > 0)
        L["enumerate.us_per_state"] =
            L["enumerate.busy_ms"] * ops * 1e3 / explored;
}

/** Seeded shuffle (std::mt19937 is specified bit-for-bit). */
template <typename T>
void
shuffle(std::vector<T> &v, std::mt19937 &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng() % i]);
}

// --------------------------------------------------------- litmus-library

/**
 * The litmus library under every model.  An op is one pass: the
 * example files are re-parsed, then one enumerateBatch call runs every
 * (test, model) job.  One call per (model, pass) was measured too: its
 * 44 tiny jobs at 4 workers swung by up to 2x between identical runs
 * on a shared 4-CPU host, so no bound could hold it.
 */
class LitmusLibrary : public Workload
{
  public:
    explicit LitmusLibrary(const Context &ctx) : ctx_(ctx) {}

    double warmupSeconds() const override { return 1; }

    void
    setup(Tracer *tr) override
    {
        const fs::path in = fs::path(ctx_.dataDir) / "inputs";
        library_ = litmus::allTests();
        examples_ = readInputs(in, ".litmus");
        models_.clear();
        for (ModelId id : allModels())
            models_.push_back(makeModel(id));
        bundled_ = models_.size();
        for (const auto &[file, text] : readInputs(in, ".model")) {
            ScopedSpan span(tr, "model.parse", -1);
            models_.push_back(parseModel(text));
        }
        refs_ = readRefs(fs::path(ctx_.dataDir) / "refs" / "litmus.ref");
    }

    Phase
    run(double seconds, long units, Tracer *tr) override
    {
        Phase ph;
        std::mt19937 rng(ctx_.seed);
        stats::StatsRegistry reg;
        double batchCpu = 0;
        double batchWall = 0;
        ph.start = Clock::now();
        const double cpu0 = cpuSeconds();
        while (anotherUnit(ph, seconds, units)) {
            // One pass: parse the example files, then one batch of
            // every (test, model) job in a seeded order.
            std::vector<LitmusTest> parsed;
            for (const auto &[file, text] : examples_) {
                ScopedSpan span(tr, "litmus.parse", ph.units);
                parsed.push_back(litmus::parseLitmus(text));
            }
            std::vector<Job> jobs;
            for (std::size_t mi = 0; mi < models_.size(); ++mi) {
                for (const auto &t : library_)
                    jobs.push_back({"lib/" + noSpaces(t.name), &t, mi});
                for (std::size_t i = 0; i < parsed.size(); ++i)
                    jobs.push_back(
                        {"ex/" + examples_[i].first, &parsed[i], mi});
            }
            shuffle(jobs, rng);
            std::vector<EnumerationJob> batch;
            for (const Job &j : jobs)
                batch.push_back({&j.test->program, &models_[j.model]});
            EnumerationOptions opts;
            opts.numWorkers = ctx_.workers;
            opts.applyRuleC = ctx_.ruleC;

            const double c0 = tr ? cpuSeconds() : 0;
            const auto t0 = Clock::now();
            std::vector<EnumerationResult> results;
            {
                ScopedSpan span(tr, "enumerate.batch", ph.units);
                results = enumerateBatch(batch, opts);
            }
            const auto t1 = Clock::now();
            if (tr) {
                batchCpu += cpuSeconds() - c0;
                batchWall += secondsBetween(t0, t1);
            }
            ++ph.attempted;
            ph.latencyMs.push_back(secondsBetween(t0, t1) * 1e3);
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const std::string bad = check(jobs[i], results[i]);
                if (!bad.empty()) {
                    ph.fail(bad);
                    break;
                }
            }
            for (const auto &r : results)
                reg.merge(r.registry);
            ++ph.units;
        }
        ph.end = Clock::now();
        ph.wallS = secondsBetween(ph.start, ph.end);
        ph.cpuS = cpuSeconds() - cpu0;
        if (tr) {
            const double ops = static_cast<double>(ph.attempted);
            ph.layer["litmus.parse_ms"] = tr->totalMs("litmus.parse") / ops;
            ph.layer["model.parse_ms"] = tr->totalMs("model.parse");
            ph.layer["enumerate.busy_ms"] = batchWall * 1e3 / ops;
            ph.layer["enumerate.calls"] = 1;
            ph.layer["enumerate.batch_cpu_util"] =
                batchCpu / (batchWall * ctx_.workers);
            registryLayers(reg, ops, ph);
        }
        return ph;
    }

  private:
    /** One (test, model) job of a pass. */
    struct Job
    {
        std::string id; ///< "lib/<name>" or "ex/<file>"
        const LitmusTest *test;
        std::size_t model; ///< index into models_
    };

    /** Empty when the result matches its references. */
    std::string
    check(const Job &job, const EnumerationResult &r) const
    {
        const MemoryModel &model = models_[job.model];
        const std::string where = job.id + " " + model.name;
        if (r.truncation != Truncation::None)
            return where + ": truncated";
        // Rules a, b and c leave only executions that can continue
        // (Section 3.3), so without speculation nothing rolls back.
        if (model.nonSpecAliasDeps && r.stats.rollbacks != 0)
            return where + ": a non-speculative model rolled back";
        if (job.model < bundled_) {
            const auto want = job.test->expectedFor(model.id);
            if (want && *want != job.test->cond.observable(r.outcomes))
                return where + ": verdict differs from expect";
        }
        const auto ref = refs_.find(job.id + "|" + model.name);
        if (ref == refs_.end())
            return where + ": no pinned reference";
        if (ref->second != outcomeRef(r.outcomes))
            return where + ": outcome set differs from pinned";
        return "";
    }

    Context ctx_;
    std::vector<LitmusTest> library_;
    std::vector<std::pair<std::string, std::string>> examples_;
    std::vector<MemoryModel> models_;
    std::size_t bundled_ = 0;
    std::map<std::string, std::string> refs_;
};

// ---------------------------------------------------------- ring-uncapped

/** bench_scaling's ring: thread i stores its slot, then reads others. */
Program
ring(int threads, int reads)
{
    ProgramBuilder pb;
    for (int i = 0; i < threads; ++i) {
        auto &t = pb.thread("P" + std::to_string(i));
        t.store(100 + i, i + 1);
        for (int r = 1; r <= reads; ++r)
            t.load(r, 100 + (i + r) % threads);
    }
    return pb.build();
}

constexpr int kRingThreads = 5;
constexpr int kRingReads = 2;

/**
 * The uncapped t5r2 ring: TSO serial, WMM serial and WMM on the wave
 * engine.  A unit is one round, one enumeration of each in a seeded
 * order, and an op is one enumeration; the detail line gives each
 * configuration's median.
 */
class RingUncapped : public Workload
{
  public:
    explicit RingUncapped(const Context &ctx) : ctx_(ctx) {}

    void
    setup(Tracer *) override
    {
        program_ = ring(kRingThreads, kRingReads);
        tso_ = makeModel(ModelId::TSO);
        wmm_ = makeModel(ModelId::WMM);
        const auto refs =
            readRefs(fs::path(ctx_.dataDir) / "refs" / "ring.ref");
        tsoRef_ = refs.at("t5r2-tso");
        wmmRef_ = outcomeRef(closedFormWmm());
    }

    Phase
    run(double seconds, long units, Tracer *tr) override
    {
        struct Config
        {
            const char *name;
            const MemoryModel *model;
            int workers;
        };
        std::vector<Config> configs = {
            {"serial_tso_s", &tso_, 1},
            {"serial_wmm_s", &wmm_, 1},
            {"wave_wmm_s", &wmm_, ctx_.workers},
        };
        std::map<std::string, std::vector<double>> times;
        std::mt19937 rng(ctx_.seed);
        stats::StatsRegistry reg;
        double busyS = 0;
        double waveCpu = 0;
        double waveWall = 0;

        Phase ph;
        ph.start = Clock::now();
        const double cpu0 = cpuSeconds();
        while (anotherUnit(ph, seconds, units)) {
            shuffle(configs, rng);
            for (const Config &c : configs) {
                const long op = ph.attempted;
                EnumerationOptions opts;
                opts.numWorkers = c.workers;
                const double c0 = tr ? cpuSeconds() : 0;
                const auto t0 = Clock::now();
                EnumerationResult r;
                {
                    ScopedSpan span(tr,
                                    c.workers == 1 ? "enumerate.serial"
                                                   : "enumerate.wave",
                                    op);
                    r = enumerateBehaviors(program_, *c.model, opts);
                }
                const double s = secondsBetween(t0, Clock::now());
                times[c.name].push_back(s);
                if (tr && c.workers > 1) {
                    waveCpu += cpuSeconds() - c0;
                    waveWall += s;
                }
                ++ph.attempted;
                ph.latencyMs.push_back(s * 1e3);
                busyS += s;
                const std::string why = check(*c.model, r);
                if (!why.empty())
                    ph.fail(std::string(c.name) + ": " + why);
                reg.merge(r.registry);
            }
            ++ph.units;
        }
        ph.end = Clock::now();
        ph.wallS = secondsBetween(ph.start, ph.end);
        ph.cpuS = cpuSeconds() - cpu0;
        for (const auto &[name, v] : times)
            ph.detail[name] = percentile(v, 0.5);
        if (tr) {
            const double ops = static_cast<double>(ph.attempted);
            ph.layer["enumerate.busy_ms"] = busyS * 1e3 / ops;
            ph.layer["enumerate.calls"] = 1;
            ph.layer["enumerate.wave_cpu_util"] =
                waveCpu / (waveWall * ctx_.workers);
            registryLayers(reg, ops, ph);
        }
        return ph;
    }

  private:
    /**
     * The ring's WMM outcomes in closed form: every Load reads 0 or
     * the one Store to its location, all 2^(threads*reads)
     * combinations, and final memory holds every Store.
     */
    static std::vector<Outcome>
    closedFormWmm()
    {
        // Sorted by Outcome::key(), each key built once.
        std::map<std::string, Outcome> all;
        const int loads = kRingThreads * kRingReads;
        for (int bits = 0; bits < (1 << loads); ++bits) {
            Outcome o;
            o.regs.resize(kRingThreads);
            for (int t = 0; t < kRingThreads; ++t) {
                o.memory[100 + t] = t + 1;
                for (int k = 1; k <= kRingReads; ++k) {
                    const bool stored = bits >> (t * kRingReads + k - 1) & 1;
                    o.regs[t][k] = stored ? (t + k) % kRingThreads + 1 : 0;
                }
            }
            std::string key = o.key();
            all.emplace(std::move(key), std::move(o));
        }
        std::vector<Outcome> out;
        for (auto &[key, o] : all)
            out.push_back(std::move(o));
        return out;
    }

    /** TSO against the operational machine's set, WMM the closed form. */
    std::string
    check(const MemoryModel &model, const EnumerationResult &r) const
    {
        if (r.truncation != Truncation::None)
            return "truncated";
        if (r.stats.rollbacks != 0)
            return "a non-speculative model rolled back";
        const bool tso = &model == &tso_;
        if (outcomeRef(r.outcomes) != (tso ? tsoRef_ : wmmRef_))
            return tso ? "outcome set differs from operational TSO"
                       : "outcome set differs from the closed form";
        return "";
    }

    Context ctx_;
    Program program_;
    MemoryModel tso_;
    MemoryModel wmm_;
    std::string tsoRef_;
    std::string wmmRef_;
};

// ---------------------------------------------------------- fuzz-campaign

/** The campaign's pinned seed range (ROADMAP: satom_fuzz 1..200). */
constexpr std::uint32_t kFuzzFirst = 1;
constexpr std::uint32_t kFuzzSeeds = 200;

/**
 * Differential fuzzing: all five oracles on every program of the
 * pinned seed range.  Each program runs in one thread; min(4, nproc)
 * threads take programs from one stream of passes over the range, so
 * no thread waits for the end of a pass.  The first pass runs in an
 * order drawn from the benchmark seed, later ones slowest program
 * first (as timed in the passes before), so the run does not end with
 * threads idle behind one long program.  The programs are generated
 * in set-up: the system receives only the generated inputs.
 */
class FuzzCampaign : public Workload
{
  public:
    explicit FuzzCampaign(const Context &ctx) : ctx_(ctx) {}

    void
    setup(Tracer *tr) override
    {
        programs_.clear();
        for (std::uint32_t i = 0; i < kFuzzSeeds; ++i) {
            ScopedSpan span(tr, "fuzz.generate", -1);
            programs_.emplace_back(kFuzzFirst + i,
                                   fuzz::generateProgram(kFuzzFirst + i));
        }
        oracles_ = fuzz::allOracles();
    }

    Phase
    run(double seconds, long units, Tracer *tr) override
    {
        Phase ph;
        Stream stream(ctx_.seed, programs_.size());
        std::vector<Lane> lanes(static_cast<std::size_t>(ctx_.workers));
        ph.start = Clock::now();
        const double cpu0 = cpuSeconds();
        {
            std::vector<std::thread> pool;
            for (std::size_t k = 1; k < lanes.size(); ++k)
                pool.emplace_back([&, k] {
                    work(stream, ph, seconds, units, tr, lanes[k]);
                });
            work(stream, ph, seconds, units, tr, lanes[0]);
            for (auto &t : pool)
                t.join();
        }
        ph.end = Clock::now();
        ph.wallS = secondsBetween(ph.start, ph.end);
        ph.cpuS = cpuSeconds() - cpu0;
        ph.units = stream.passes;

        stats::StatsRegistry reg;
        std::map<fuzz::OracleId, double> oracleMs;
        for (const Lane &lane : lanes) {
            ph.attempted += static_cast<long>(lane.latencyMs.size());
            ph.latencyMs.insert(ph.latencyMs.end(), lane.latencyMs.begin(),
                                lane.latencyMs.end());
            for (const auto &why : lane.failures)
                ph.fail(why);
            reg.merge(lane.reg);
            for (const auto &[id, ms] : lane.oracleMs)
                oracleMs[id] += ms;
        }
        if (tr) {
            const double ops = static_cast<double>(ph.attempted);
            ph.layer["fuzz.generate_ms"] =
                tr->totalMs("fuzz.generate") / kFuzzSeeds;
            for (const auto &[id, ms] : oracleMs)
                ph.layer["fuzz.oracle." + fuzz::toString(id) + "_ms"] =
                    ms / ops;
            registryLayers(reg, ops, ph);
        }
        return ph;
    }

  private:
    /**
     * The programs to run, as one stream of passes.  A new pass starts
     * only while anotherUnit() allows it, judged on the passes started.
     */
    struct Stream
    {
        Stream(std::uint32_t seed, std::size_t size)
            : rng(seed), order(size),
              lastMs(size, std::numeric_limits<double>::infinity())
        {
            for (std::size_t i = 0; i < size; ++i)
                order[i] = i;
        }

        std::mutex m;
        std::mt19937 rng;
        std::vector<std::size_t> order;
        /** Latest latency of each program; infinite until timed. */
        std::vector<double> lastMs;
        std::size_t next = 0; ///< position in the current pass
        long passes = 0;      ///< passes started
        long ops = 0;         ///< programs handed out
        bool done = false;
    };

    /** What one thread measured. */
    struct Lane
    {
        std::vector<double> latencyMs;
        std::vector<std::string> failures;
        stats::StatsRegistry reg;
        std::map<fuzz::OracleId, double> oracleMs;
    };

    /**
     * Record the latency of the program just run (@p doneMs < 0 for
     * none), then hand out the next program's index and op number;
     * false when done.
     */
    bool
    take(Stream &s, const Phase &ph, double seconds, long units,
         double doneMs, std::size_t &index, long &op)
    {
        std::lock_guard<std::mutex> lock(s.m);
        if (doneMs >= 0)
            s.lastMs[index] = doneMs;
        if (s.done)
            return false;
        if (s.passes == 0 || s.next == s.order.size()) {
            Phase started;
            started.start = ph.start;
            started.units = s.passes;
            if (!anotherUnit(started, seconds, units)) {
                s.done = true;
                return false;
            }
            if (s.passes == 0)
                shuffle(s.order, s.rng);
            else
                std::stable_sort(s.order.begin(), s.order.end(),
                                 [&](std::size_t a, std::size_t b) {
                                     return s.lastMs[a] > s.lastMs[b];
                                 });
            s.next = 0;
            ++s.passes;
        }
        index = s.order[s.next++];
        op = s.ops++;
        return true;
    }

    void
    work(Stream &stream, const Phase &ph, double seconds, long units,
         Tracer *tr, Lane &lane)
    {
        std::size_t index = 0;
        long op = 0;
        double doneMs = -1;
        while (take(stream, ph, seconds, units, doneMs, index, op)) {
            const auto &[seed, program] = programs_[index];
            const auto t0 = Clock::now();
            std::vector<fuzz::Discrepancy> results;
            std::string thrown;
            try {
                if (tr) {
                    // The same work runOracles loops over, one span each.
                    for (fuzz::OracleId id : oracles_) {
                        const auto o0 = Clock::now();
                        ScopedSpan span(
                            tr, "fuzz.oracle." + fuzz::toString(id), op);
                        results.push_back(fuzz::runOracle(id, program));
                        lane.oracleMs[id] +=
                            secondsBetween(o0, Clock::now()) * 1e3;
                    }
                } else {
                    results = fuzz::runOracles(program);
                }
            } catch (const std::exception &e) {
                // A worker thread must not throw; count the op failed.
                thrown = e.what();
            }
            doneMs = secondsBetween(t0, Clock::now()) * 1e3;
            lane.latencyMs.push_back(doneMs);
            if (!thrown.empty())
                lane.failures.push_back("seed " + std::to_string(seed) +
                                        ": " + thrown);
            for (const auto &d : results) {
                if (!thrown.empty())
                    break;
                if (!d.passed()) {
                    lane.failures.push_back("seed " + std::to_string(seed) +
                                            " " + fuzz::toString(d.oracle) +
                                            ": " + fuzz::toString(d.verdict));
                    break;
                }
            }
            for (const auto &d : results)
                lane.reg.merge(d.stats);
        }
    }

    Context ctx_;
    std::vector<std::pair<std::uint32_t, Program>> programs_;
    std::vector<fuzz::OracleId> oracles_;
};

// ------------------------------------------------------------- satomd-mix

const char *const kMatrixModels = "[\"SC\", \"TSO\", \"WMM\"]";

std::string
matrixRequest(const std::string &id, const std::string &litmus)
{
    return "{\"id\": \"" + id +
           "\", \"op\": \"matrix\", \"class\": \"batch\", \"litmus\": \"" +
           service::jsonEscape(litmus) + "\", \"models\": " +
           kMatrixModels + "}";
}

std::string
statusOf(const std::string &response)
{
    const std::string key = "\"status\": \"";
    const auto at = response.find(key);
    if (at == std::string::npos)
        return "?";
    const auto from = at + key.size();
    return response.substr(from, response.find('"', from) - from);
}

/** Digest of a response with its request id blanked. */
std::string
payloadDigest(const std::string &response)
{
    const std::string key = "\"id\": \"";
    std::string s = response;
    const auto at = s.find(key);
    if (at != std::string::npos) {
        const auto from = at + key.size();
        s.erase(from, s.find('"', from) - from);
    }
    return digest(s);
}

/** The warm set: the litmus library rendered as litmus text. */
std::vector<std::string>
warmTexts()
{
    std::vector<std::string> out;
    for (const auto &t : litmus::allTests())
        out.push_back(fuzz::toLitmusText(t.program, noSpaces(t.name)));
    return out;
}

std::string
coldText(std::uint32_t seed)
{
    return fuzz::toLitmusText(fuzz::generateProgram(seed),
                              "c" + std::to_string(seed));
}

/** Responses delivered by the service, shared with its sinks. */
struct Mailbox
{
    struct Letter
    {
        long op;
        std::string response;
        Clock::time_point at;
    };
    std::mutex m;
    std::condition_variable cv;
    std::deque<Letter> letters;

    /** A sink for request @p op; it keeps @p box alive. */
    static service::Service::Sink
    sink(const std::shared_ptr<Mailbox> &box, long op)
    {
        return [box, op](const std::string &line) {
            const auto at = Clock::now();
            {
                std::lock_guard<std::mutex> lock(box->m);
                box->letters.push_back({op, line, at});
            }
            box->cv.notify_one();
            return true;
        };
    }

    /** Next letter; false after @p timeout with none. */
    bool
    take(Letter &out, std::chrono::seconds timeout)
    {
        std::unique_lock<std::mutex> lock(m);
        if (!cv.wait_for(lock, timeout, [&] { return !letters.empty(); }))
            return false;
        out = std::move(letters.front());
        letters.pop_front();
        return true;
    }
};

constexpr int kInFlight = 2;
constexpr int kServiceWorkers = 2;
constexpr std::size_t kColdPerPhase = 4800;

/**
 * Keep the calling thread, and every thread it starts later, on the
 * first @p n CPUs it may run on.
 */
void
pinToCpus(int n)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    cpu_set_t use;
    CPU_ZERO(&use);
    for (int c = 0, k = 0; c < CPU_SETSIZE && k < n; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            CPU_SET(c, &use);
            ++k;
        }
    }
    sched_setaffinity(0, sizeof use, &use);
}

/**
 * An in-process satomd with a result cache: a closed loop keeps
 * kInFlight matrix requests in flight, three warm (cache hits) to
 * one cold (a fresh fuzz program that misses and inserts).
 *
 * The process runs on kServiceWorkers CPUs.  Every request hands off
 * from the generator to a worker and back; spread over all CPUs, each
 * hand-off woke an idle virtual CPU, and on a shared host the time the
 * host took to run it made the figures follow the host's load (on a
 * shared 4-vCPU VM, in alternating 30 s runs on 4 CPUs against 2,
 * ops_per_s spread 0.23 against 0.13, op_p90_ms 0.44 against 0.11).
 */
class SatomdMix : public Workload
{
  public:
    explicit SatomdMix(const Context &ctx) : ctx_(ctx)
    {
        pinToCpus(kServiceWorkers);
    }

    ~SatomdMix() override { stopService(); }

    double warmupSeconds() const override { return 1; }

    void
    setup(Tracer *tr) override
    {
        stopService();
        const fs::path refs = fs::path(ctx_.dataDir) / "refs";
        warm_ = warmTexts();
        const auto warmRefs = readRefs(refs / "satomd_warm.ref");
        warmRef_.clear();
        for (std::size_t i = 0; i < warm_.size(); ++i)
            warmRef_.push_back(warmRefs.at("w" + std::to_string(i)));
        cold_.clear();
        for (const auto &[seed, ref] : readRefs(refs / "satomd_cold.ref"))
            cold_.emplace_back(static_cast<std::uint32_t>(std::stoul(seed)),
                               ref);
        std::sort(cold_.begin(), cold_.end());
        coldNext_ = ctx_.seed % cold_.size();
        coldUsed_ = 0;
        rng_.seed(ctx_.seed);

        cacheDir_ = (fs::path(ctx_.workDir) / "satomd-cache").string();
        fs::remove_all(cacheDir_);
        fs::create_directories(cacheDir_);
        service::ServiceConfig cfg;
        cfg.workers = kServiceWorkers;
        cfg.cacheDir = cacheDir_;
        svc_ = std::make_unique<service::Service>(cfg);
        svc_->start();

        // Prime: every warm program once, so each timed warm request
        // is a cache hit.  A wrong answer here shows up as failed timed
        // warm requests.
        auto box = std::make_shared<Mailbox>();
        for (std::size_t i = 0; i < warm_.size(); ++i) {
            ScopedSpan span(tr, "service.prime", -1);
            svc_->handleLine(matrixRequest("p" + std::to_string(i), warm_[i]),
                             CancelToken{}, Mailbox::sink(box, 0));
            Mailbox::Letter l;
            if (!box->take(l, std::chrono::seconds(60)))
                throw std::runtime_error("no response priming warm program " +
                                         std::to_string(i));
        }
    }

    Phase
    run(double seconds, long units, Tracer *tr) override
    {
        struct Pending
        {
            bool cold = false;
            std::string ref;
            Clock::time_point t0;
            Clock::time_point admitted;
            std::string program;
        };
        auto mailbox = std::make_shared<Mailbox>();
        std::map<long, Pending> pending;
        std::vector<double> warmMs;
        std::vector<double> coldMs;
        std::vector<double> admitUs;
        const auto counters0 = serviceCounters();
        traced_.clear();

        Phase ph;
        ph.start = Clock::now();
        const double cpu0 = cpuSeconds();
        long submitted = 0;
        long answered = 0;
        // A phase also ends after kColdPerPhase cold requests, so the
        // result cache, and with it peak RSS, grows by the same amount
        // in every run whatever the throughput; and before the cold
        // pool runs out, as a repeated cold program would be a hit.
        std::size_t coldPhase = 0;
        auto wantMore = [&] {
            const bool cold = submitted % 4 == 3;
            if (cold && (coldPhase >= kColdPerPhase ||
                         coldUsed_ >= cold_.size()))
                return false;
            return units > 0 ? submitted < units
                             : secondsBetween(ph.start, Clock::now()) <
                                   seconds;
        };
        for (;;) {
            while (static_cast<long>(pending.size()) < kInFlight &&
                   wantMore()) {
                const long op = submitted++;
                Pending p;
                std::string id;
                if (op % 4 == 3) {
                    const auto &[seed, ref] = cold_[coldNext_];
                    coldNext_ = (coldNext_ + 1) % cold_.size();
                    ++coldUsed_;
                    ++coldPhase;
                    p.cold = true;
                    p.ref = ref;
                    p.program = coldText(seed);
                    id = "c" + std::to_string(seed);
                } else {
                    const std::size_t w = rng_() % warm_.size();
                    p.ref = warmRef_[w];
                    p.program = warm_[w];
                    id = "w" + std::to_string(w);
                }
                const std::string line = matrixRequest(id, p.program);
                p.t0 = Clock::now();
                svc_->handleLine(line, CancelToken{},
                                 Mailbox::sink(mailbox, op));
                p.admitted = Clock::now();
                pending.emplace(op, std::move(p));
            }
            if (pending.empty())
                break;
            Mailbox::Letter l;
            if (!mailbox->take(l, std::chrono::seconds(120))) {
                ph.fail("no response within 120 s");
                break;
            }
            ++answered;
            auto it = pending.find(l.op);
            if (it == pending.end()) {
                ph.fail("a second response to request " +
                        std::to_string(l.op));
                continue;
            }
            const Pending &p = it->second;
            const double ms = secondsBetween(p.t0, l.at) * 1e3;
            ++ph.attempted;
            ph.latencyMs.push_back(ms);
            (p.cold ? coldMs : warmMs).push_back(ms);
            const std::string status = statusOf(l.response);
            if (status != "ok")
                ph.fail("status " + status);
            else if (payloadDigest(l.response) != p.ref)
                ph.fail("payload differs from pinned digest: " +
                        l.response.substr(0, 120));
            if (tr) {
                const int req =
                    tr->add("service.request", l.op, p.t0, l.at, -1,
                            static_cast<int>(l.op % kInFlight));
                tr->add("service.admit", l.op, p.t0, p.admitted, req,
                        static_cast<int>(l.op % kInFlight));
                admitUs.push_back(secondsBetween(p.t0, p.admitted) * 1e6);
                traced_.push_back(p.program);
            }
            pending.erase(it);
            ++ph.units;
        }
        ph.end = Clock::now();
        ph.wallS = secondsBetween(ph.start, ph.end);
        ph.cpuS = cpuSeconds() - cpu0;
        if (submitted != answered)
            ph.fail("submitted " + std::to_string(submitted) +
                    " != answered " + std::to_string(answered));
        ph.detail["warm_p50_ms"] = percentile(warmMs, 0.5);
        ph.detail["warm_p90_ms"] = percentile(warmMs, 0.9);
        ph.detail["cold_p50_ms"] = percentile(coldMs, 0.5);
        ph.detail["cold_p90_ms"] = percentile(coldMs, 0.9);
        ph.detail["submitted"] = static_cast<double>(submitted);
        ph.detail["answered"] = static_cast<double>(answered);
        ph.detail["cold_pool_left"] =
            static_cast<double>(cold_.size() - coldUsed_);
        if (tr) {
            const double ops = static_cast<double>(ph.attempted);
            auto &L = ph.layer;
            L["service.admit_us_p50"] = percentile(admitUs, 0.5);
            L["service.admit_us_p90"] = percentile(admitUs, 0.9);
            const auto &qw = svc_->queueWait(service::JobClass::Batch);
            const auto &st = svc_->serviceTime(service::JobClass::Batch);
            L["service.queue_wait_us_p50"] =
                static_cast<double>(qw.percentileUs(0.5));
            L["service.queue_wait_us_p90"] =
                static_cast<double>(qw.percentileUs(0.9));
            L["service.service_time_us_p50"] =
                static_cast<double>(st.percentileUs(0.5));
            L["service.service_time_us_p90"] =
                static_cast<double>(st.percentileUs(0.9));
            const auto counters1 = serviceCounters();
            for (const auto &[name, v] : counters1)
                L[name] = name == "service.queue_depth_peak"
                              ? static_cast<double>(v)
                              : static_cast<double>(v - counters0.at(name)) /
                                    ops;
        }
        return ph;
    }

    /**
     * The service does not export its cache traffic, so after the run
     * the benchmark reopens the persisted cache and looks up every
     * program the traced phase requested, under each model: all must
     * hit, which also proves each cold request inserted.
     */
    void
    finish(Tracer *tr, Phase &ph) override
    {
        stopService();
        cache::ResultCache rc;
        if (!rc.open(cacheDir_).ok()) {
            ph.fail("cannot reopen the result cache");
            return;
        }
        const std::vector<ModelId> models = {ModelId::SC, ModelId::TSO,
                                             ModelId::WMM};
        double canonMs = 0;
        long hits = 0;
        long misses = 0;
        for (const std::string &text : traced_) {
            const Program program = litmus::parseLitmus(text).program;
            const auto t0 = Clock::now();
            cache::CanonicalProgram cp;
            {
                ScopedSpan span(tr, "cache.canonicalize", -1);
                cp = cache::canonicalize(program);
            }
            canonMs += secondsBetween(t0, Clock::now()) * 1e3;
            for (ModelId id : models) {
                const EnumerationOptions opts;
                const std::string ctx = cache::contextEncoding(
                    makeModel(id), opts.maxDynamicPerThread,
                    opts.maxStates);
                std::string payload;
                ScopedSpan span(tr, "cache.lookup", -1);
                (rc.lookup(cp.fingerprint, cache::fingerprintBytes(ctx),
                           cp.encoding, ctx, payload)
                     ? hits
                     : misses)++;
            }
        }
        const double n = static_cast<double>(traced_.size());
        ph.layer["cache.canon_ms"] = canonMs / n;
        ph.layer["cache.hits"] = static_cast<double>(hits) / n;
        ph.layer["cache.misses"] = static_cast<double>(misses) / n;
        ph.layer["cache.hit_ratio"] =
            static_cast<double>(hits) / static_cast<double>(hits + misses);
        if (misses > 0)
            ph.fail(std::to_string(misses) +
                    " requested entries missing from the cache");
    }

  private:
    std::map<std::string, std::uint64_t>
    serviceCounters() const
    {
        return {
            {"service.jobs_admitted", svc_->counter(Ctr::JobsAdmitted)},
            {"service.jobs_served", svc_->counter(Ctr::JobsServed)},
            {"service.jobs_shed", svc_->counter(Ctr::JobsShed)},
            {"service.jobs_stale", svc_->counter(Ctr::JobsStale)},
            {"service.jobs_faulted", svc_->counter(Ctr::JobsFaulted)},
            {"service.queue_depth_peak", svc_->counter(Ctr::QueueDepthPeak)},
            {"service.read_only_trips", svc_->counter(Ctr::ReadOnlyTrips)},
        };
    }

    void
    stopService()
    {
        if (svc_)
            svc_->stop();
        svc_.reset();
    }

    Context ctx_;
    std::vector<std::string> warm_;
    std::vector<std::string> warmRef_;
    std::vector<std::pair<std::uint32_t, std::string>> cold_;
    std::size_t coldNext_ = 0;
    std::size_t coldUsed_ = 0;
    std::mt19937 rng_;
    std::unique_ptr<service::Service> svc_;
    std::string cacheDir_;
    std::vector<std::string> traced_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Context &ctx)
{
    if (name == "litmus-library")
        return std::make_unique<LitmusLibrary>(ctx);
    if (name == "ring-uncapped")
        return std::make_unique<RingUncapped>(ctx);
    if (name == "fuzz-campaign")
        return std::make_unique<FuzzCampaign>(ctx);
    if (name == "satomd-mix")
        return std::make_unique<SatomdMix>(ctx);
    return nullptr;
}

// -------------------------------------------------------------- pinning

namespace
{

constexpr std::uint32_t kColdFirstSeed = 1000001;
constexpr std::size_t kColdPool = 8192;

int
pinLitmus(const Context &ctx, const fs::path &refs)
{
    const fs::path in = fs::path(ctx.dataDir) / "inputs";
    std::vector<std::pair<std::string, LitmusTest>> tests;
    for (const auto &t : litmus::allTests())
        tests.emplace_back("lib/" + noSpaces(t.name), t);
    for (const auto &[file, text] : readInputs(in, ".litmus"))
        tests.emplace_back("ex/" + file, litmus::parseLitmus(text));
    std::vector<std::pair<MemoryModel, bool>> models;
    for (ModelId id : allModels())
        models.emplace_back(makeModel(id), true);
    for (const auto &[file, text] : readInputs(in, ".model"))
        models.emplace_back(parseModel(text), false);

    int bad = 0;
    std::vector<std::string> lines;
    for (const auto &[name, t] : tests)
        for (const auto &[model, bundled] : models) {
            EnumerationOptions opts;
            opts.numWorkers = 1;
            const auto r = enumerateBehaviors(t.program, model, opts);
            const auto want = t.expectedFor(model.id);
            if (r.truncation != Truncation::None ||
                (bundled && want &&
                 *want != t.cond.observable(r.outcomes))) {
                std::fprintf(stderr, "pin: %s %s disagrees with expect\n",
                             name.c_str(), model.name.c_str());
                ++bad;
            }
            std::string ref = outcomeRef(r.outcomes);
            // SC and TSO rows come from the operational machines; the
            // engine must agree with them when pinned.
            const bool sc = bundled && model.id == ModelId::SC;
            const bool tso = bundled && model.id == ModelId::TSO;
            if (sc || tso) {
                const auto oper = sc ? enumerateOperationalSC(t.program)
                                     : enumerateOperationalTSO(t.program);
                ref = outcomeRef(oper.outcomes);
                if (!oper.complete || ref != outcomeRef(r.outcomes)) {
                    std::fprintf(stderr,
                                 "pin: %s %s differs from the operational "
                                 "machine\n",
                                 name.c_str(), model.name.c_str());
                    ++bad;
                }
            }
            lines.push_back(name + "|" + model.name + " " + ref);
        }
    writeRefs(refs / "litmus.ref",
              "# <test>|<model> <outcome count> <outcome-set digest>\n"
              "# SC and TSO rows: enumerateOperationalSC / "
              "enumerateOperationalTSO.\n"
              "# Other rows: the engine's own outcome sets when pinned, a "
              "regression\n# reference; their verdicts were checked "
              "against the `expect` lines.\n",
              lines);
    return bad;
}

int
pinRing(const fs::path &refs)
{
    const auto tso = enumerateOperationalTSO(ring(kRingThreads, kRingReads));
    if (!tso.complete) {
        std::fprintf(stderr, "pin: operational ring search truncated\n");
        return 1;
    }
    writeRefs(refs / "ring.ref",
              "# t5r2 ring TSO outcome set from the operational machine\n"
              "# (enumerateOperationalTSO):\n"
              "# <config> <outcome count> <outcome-set digest>\n",
              {"t5r2-tso " + outcomeRef(tso.outcomes)});
    return 0;
}

/** Run @p line to completion on @p svc; the response. */
std::string
ask(service::Service &svc, const std::string &line)
{
    auto box = std::make_shared<Mailbox>();
    svc.handleLine(line, CancelToken{}, Mailbox::sink(box, 0));
    Mailbox::Letter l;
    if (!box->take(l, std::chrono::seconds(120)))
        throw std::runtime_error("no response while pinning");
    return l.response;
}

int
pinSatomd(const fs::path &refs)
{
    service::ServiceConfig cfg;
    cfg.workers = 1;
    service::Service svc(cfg);
    svc.start();

    std::set<std::uint64_t> seen;
    std::vector<std::string> warm;
    const auto texts = warmTexts();
    for (std::size_t i = 0; i < texts.size(); ++i) {
        const std::string resp =
            ask(svc, matrixRequest("w" + std::to_string(i), texts[i]));
        if (statusOf(resp) != "ok")
            throw std::runtime_error("warm pin failed: " + resp);
        warm.push_back("w" + std::to_string(i) + " " + payloadDigest(resp));
        seen.insert(cache::canonicalize(
                        litmus::parseLitmus(texts[i]).program)
                        .fingerprint);
    }
    writeRefs(refs / "satomd_warm.ref",
              "# w<index into litmus::allTests()> <digest of the matrix "
              "response, id blanked>\n",
              warm);

    // Cold pool: fuzz seeds whose programs are canonically distinct
    // from the warm set and from each other, so each one misses.
    std::vector<std::string> cold;
    for (std::uint32_t seed = kColdFirstSeed; cold.size() < kColdPool;
         ++seed) {
        const std::string text = coldText(seed);
        if (!seen.insert(cache::canonicalize(
                             litmus::parseLitmus(text).program)
                             .fingerprint)
                 .second)
            continue;
        const std::string resp =
            ask(svc, matrixRequest("c" + std::to_string(seed), text));
        if (statusOf(resp) != "ok" ||
            resp.find("\"complete\": false") != std::string::npos)
            continue;
        cold.push_back(std::to_string(seed) + " " + payloadDigest(resp));
    }
    svc.stop();
    writeRefs(refs / "satomd_cold.ref",
              "# <fuzz seed> <digest of the matrix response, id "
              "blanked>\n# Seeds from " +
                  std::to_string(kColdFirstSeed) +
                  " whose programs are canonically distinct from the "
                  "warm set and each other.\n",
              cold);
    return 0;
}

} // namespace

int
pinReferences(const Context &ctx)
{
    const fs::path refs = fs::path(ctx.dataDir) / "refs";
    fs::create_directories(refs);
    int bad = pinLitmus(ctx, refs);
    bad += pinRing(refs);
    bad += pinSatomd(refs);
    return bad == 0 ? 0 : 1;
}

} // namespace satbench
