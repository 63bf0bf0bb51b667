/**
 * @file
 * Shared pieces of the satbench benchmark: the span tracer, the
 * per-phase measurement record, statistics and digests.
 *
 * Spans are recorded only by the benchmark's own code, around each
 * call it makes into a layer of the system (parser, model, engine,
 * baseline, fuzz, cache, service).  They stay in memory and are
 * written once, at exit, as Chrome trace-event JSON (the format of
 * `litmus_runner --trace`).
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace satbench
{

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);

/** User plus system CPU seconds of this process (getrusage). */
double cpuSeconds();

/** Peak resident set size of this process in MB (ru_maxrss). */
double peakRssMb();

/** Linear-interpolated percentile @p p in [0,1]; 0 when empty. */
double percentile(std::vector<double> v, double p);

/** Incremental FNV-1a 64 over bytes and integers. */
class Digest
{
  public:
    Digest &add(const std::string &s);
    Digest &add(std::uint64_t v);
    std::string hex() const; ///< 16 hex digits

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** FNV-1a 64 of @p s as 16 hex digits. */
inline std::string
digest(const std::string &s)
{
    return Digest().add(s).hex();
}

/** One recorded span. */
struct Span
{
    std::string name;  ///< "<layer>.<call>", e.g. "enumerate.batch"
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;   ///< index of the enclosing span, -1 for a root
    long op = -1;      ///< workload op the span belongs to
    int tid = 0;       ///< Chrome-trace lane
};

/** In-memory span log.  Thread-safe. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    /** Open a root span now; returns its index for end(). */
    int begin(const std::string &name, long op);
    void end(int index);

    /** Record a span whose endpoints were taken elsewhere. */
    int add(const std::string &name, long op, Clock::time_point start,
            Clock::time_point end, int parent = -1, int tid = 0);

    std::vector<Span> spans() const;

    /** Summed duration in ms of spans named @p name. */
    double totalMs(const std::string &name) const;

    /**
     * Share of [@p from, @p to] covered by the union of root spans.
     */
    double coverage(Clock::time_point from, Clock::time_point to) const;

    /**
     * Per layer (the name up to the first '.'): total and self ms,
     * self time being a span minus the part its children cover.
     */
    std::map<std::string, std::pair<double, double>> layerTimes() const;

    /** Write every span as Chrome trace-event JSON; false on error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex m_;
    std::vector<Span> spans_;
};

/** RAII root span; inert when the tracer is null. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tr, const std::string &name, long op)
        : tr_(tr), index_(tr ? tr->begin(name, op) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tr_)
            tr_->end(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tr_;
    int index_;
};

/** What one measured phase of a workload produced. */
struct Phase
{
    std::vector<double> latencyMs; ///< one per completed op
    long attempted = 0;
    long failed = 0;
    long units = 0;      ///< whole units run (passes, rounds, seeds...)
    double wallS = 0;    ///< timed wall time
    double cpuS = 0;     ///< process CPU over the timed phase
    Clock::time_point start{};
    Clock::time_point end{};

    /** Workload-specific figures (warm/cold split, ring configs). */
    std::map<std::string, double> detail;

    /** Per-layer quantities, filled only by traced phases. */
    std::map<std::string, double> layer;

    /** First few failure descriptions, for the log. */
    std::vector<std::string> failures;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/**
 * One workload.  setup() may run several times (set-up time is the
 * median of repeats); run() measures either for @p seconds or, when
 * @p units > 0, for exactly that many units of work.  A non-null
 * @p tracer receives a span around every layer call, and a traced
 * run() also fills Phase::layer; finish() then adds what can only be
 * read once the run is over.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual void setup(Tracer *tracer) = 0;
    virtual Phase run(double seconds, long units, Tracer *tracer) = 0;
    virtual void finish(Tracer *, Phase &) {}

    /** Untimed run before measuring, for workloads of short ops. */
    virtual double warmupSeconds() const { return 0; }
};

/**
 * Should another unit start?  A counted run stops at its count.  A
 * timed run starts a unit while it should end within @p seconds,
 * judging by the mean unit so far, or while less than three quarters
 * of @p seconds has passed, so long units neither overrun the budget
 * much nor leave much of it unused.
 */
inline bool
anotherUnit(const Phase &ph, double seconds, long units)
{
    if (units > 0)
        return ph.units < units;
    if (ph.units == 0)
        return true;
    const double el = secondsBetween(ph.start, Clock::now());
    return el + el / static_cast<double>(ph.units) <= seconds ||
           el < 0.75 * seconds;
}

} // namespace satbench
