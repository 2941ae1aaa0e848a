/**
 * @file
 * Shared pieces of the benchmark program: options, the seeded input
 * generator, timing and percentile helpers, the span recorder behind
 * the traced replay, the replay's prepare step, and the result report.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/sim_error.hh"
#include "sim/machine.hh"
#include "workload/prepared.hh"

// Declared so the aliases below need no explore or serve header here.
namespace mipsx::explore
{
} // namespace mipsx::explore
namespace mipsx::serve
{
} // namespace mipsx::serve

namespace perfbench
{

namespace assembler = mipsx::assembler;
namespace explore = mipsx::explore;
namespace memory = mipsx::memory;
namespace reorg = mipsx::reorg;
namespace serve = mipsx::serve;
namespace sim = mipsx::sim;
namespace trace = mipsx::trace;
namespace workload = mipsx::workload;
using mipsx::strformat;

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The benchmark's command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
};

/** splitmix64: every generated input derives from the --seed value. */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    std::uint32_t next32() { return static_cast<std::uint32_t>(next() >> 32); }
    /** Uniform in [0, n) (n is tiny next to 2^64, so no visible bias). */
    std::uint32_t below(std::uint32_t n)
    {
        return static_cast<std::uint32_t>(next() % n);
    }

  private:
    std::uint64_t state_;
};

/** FNV-1a over every string in order: a fingerprint of generated inputs. */
std::uint64_t fingerprint(const std::vector<std::string> &parts);

/** The source text of each workload, in order (what fingerprint hashes). */
std::vector<std::string> sources(const std::vector<workload::Workload> &ws);

/** Nearest-rank percentile (@p q in [0, 1]); 0 for an empty sample. */
double percentile(std::vector<double> v, double q);

/**
 * The median, over @p segments contiguous slices of @p v (in the order
 * it was measured), of each slice's @p q percentile: a tail estimate
 * that one burst of host noise cannot move on its own.
 */
double segmentedPercentile(const std::vector<double> &v, unsigned segments,
                           double q);

/** Slices of the timed phase that its tail percentiles are taken over. */
constexpr unsigned tailSegments = 5;

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/**
 * The samples behind setup_s. One sample runs @p teardown, untimed —
 * it frees what the previous sample built and resets shared state such
 * as the PreparedCache, so every sample starts from the same place —
 * and then times @p setup, which must rebuild the workload's state
 * identically each time. The state the latest sample built is what
 * the timed work uses.
 *
 * setup_s is the median of @ref total samples. Host speed drifts by a
 * third over a few seconds, even on one pinned vCPU, so samples taken
 * back to back would measure one moment of it: @ref upFront samples run
 * before the timed work and the rest are spread over it (catchUp),
 * which keeps their time out of the timed figures. Samples run on the
 * calling thread, so each rebuild reuses the memory the previous one
 * freed and peak RSS does not depend on which malloc arena it got.
 */
class SetupTimer
{
  public:
    static constexpr unsigned upFront = 5;
    static constexpr unsigned total = 25;

    SetupTimer(std::function<void()> teardown, std::function<void()> setup)
        : teardown_(std::move(teardown)), setup_(std::move(setup))
    {
    }

    /** Take the samples due before the timed work. */
    void start();
    /**
     * Take the samples due once @p fraction of the timed work is done,
     * between two of its operations; returns the seconds this took, to
     * be left out of the timed figures.
     */
    double catchUp(double fraction);
    /** Take any samples still due; the result is setup_s. */
    double finish();

  private:
    void sample();

    std::function<void()> teardown_, setup_;
    std::vector<double> seconds_;
};

/**
 * Span recorder for the traced replay. Every call the replay makes into
 * a layer is wrapped in a span (layer, start, end, parent span); spans
 * stay in memory and are reduced to per-layer self time —
 * duration minus the time covered by child spans — once the replay
 * ends. Single-threaded by design: the replay calls the layers in turn.
 * Disabled, a span costs one branch, which is how the replay's
 * untraced baseline is timed.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Run @p fn inside a span named @p layer and return its result. */
    template <class F>
    decltype(auto)
    span(const char *layer, F &&fn)
    {
        const Scope scope(*this, layer);
        return fn();
    }

    struct Layer
    {
        double selfSeconds = 0;
        std::uint64_t calls = 0;
    };
    /** Self time and call count per layer name. */
    std::map<std::string, Layer> layers() const;

  private:
    class Scope
    {
      public:
        Scope(Tracer &t, const char *layer);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        std::int64_t index_ = -1;
    };

    struct Span
    {
        const char *layer;
        Clock::time_point start, end;
        std::int64_t parent;
    };

    bool enabled_;
    std::vector<Span> spans_;
    std::int64_t open_ = -1; ///< innermost open span
};

/**
 * The replay's prepare step. The first use of a (program, reorg config)
 * pair runs the toolchain layers — assemble, reorganize, predecode —
 * each under its own span: the work a PreparedCache miss does. The
 * library does the three in one call (workload::prepareWorkload), so
 * this is a copy of that function's body, split so each step gets a
 * span; its output is discarded. Every use then takes the image from
 * PreparedCache::get, which the untraced pass earlier in the same
 * process has filled. A get() that misses anyway means the replay
 * diverged from the measured path; it is counted in @ref divergences.
 * The hit and miss counts the benchmark reports come from the cache's
 * own statistics, not from here.
 */
class ReplayPrep
{
  public:
    /**
     * @p program names @p w among the replay's programs (an index the
     * caller already has), so telling a first use from a repeat costs
     * no hashing of the source text, which would land in no span.
     */
    workload::PreparedPtr get(Tracer &tr, const workload::Workload &w,
                              const reorg::ReorgConfig &rc,
                              std::size_t program);

    std::uint64_t divergences = 0;

  private:
    std::set<std::string> seen_;
};

/**
 * What one run reports. Operations are attempted and checked through
 * check(); metrics are set by name and printed — every end-to-end
 * metric (untraced run) or every per-layer metric (traced run), in the
 * fixed order BENCHMARK.json lists them, 0 for a layer the workload
 * does not reach. The last stdout line is the JSON result.
 */
class Report
{
  public:
    /** Count one checked operation; a false @p ok is a failure. */
    void check(bool ok, const std::string &what);
    /** Count @p n operations at once, @p bad of which failed. */
    void checkMany(std::uint64_t n, std::uint64_t bad,
                   const std::string &what);

    void set(const std::string &name, double value);
    /** Human-only line printed above the result (context, not metrics). */
    void note(const std::string &line) { notes_.push_back(line); }

    /** Print the notes, the metric table and the JSON result line. */
    void print(bool trace) const;

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, double> values_;
    std::vector<std::string> notes_;
};

/** Mean walls of a replay with tracing off and on (timeReplays). */
struct ReplayTiming
{
    double untraced = 0;
    double traced = 0;
};

/**
 * Run @p replay — a callable taking a Tracer& — five times: a warm-up
 * pass that pays first-touch costs, then untraced, traced, traced,
 * untraced, so that drift over the run cancels out of the comparison.
 * Each wall is the mean of its two passes; @p traced keeps the spans
 * of the last traced pass.
 */
template <class F>
ReplayTiming
timeReplays(Tracer &traced, F &&replay)
{
    Tracer off(false), first(true);
    replay(off);
    Tracer *const order[] = {&off, &first, &traced, &off};
    double walls[4] = {};
    for (int i = 0; i < 4; ++i) {
        const auto t0 = Clock::now();
        replay(*order[i]);
        walls[i] = secondsBetween(t0, Clock::now());
    }
    return {(walls[0] + walls[3]) / 2, (walls[1] + walls[2]) / 2};
}

/**
 * The per-layer metrics every traced replay derives from its spans:
 * layer self times, machine ns per retired instruction (over
 * @p machineInstructions), and the tracing accounting — overhead
 * against the same replay untraced, and how much of that untraced wall
 * time the span self times cover (the rest is the benchmark's own
 * glue: the gap). @p cache is the PreparedCache's own hit and miss
 * count over the workload's measured (untraced) pass.
 */
void setLayerMetrics(Report &rep, const Tracer &traced,
                     const ReplayTiming &walls, const ReplayPrep &prep,
                     std::uint64_t machineInstructions,
                     const workload::PreparedCacheStats &cache);

/** core.cpi and the I/E-cache miss ratios from summed counters. */
void setMachineRatios(Report &rep, const sim::MachineCounters &c);

/**
 * The seed checks: every set-up repetition generated the same inputs
 * (@p prints, one fingerprint each), and seed + 1 generated different
 * ones (@p next, their fingerprint).
 */
void checkSeeds(Report &rep, const std::vector<std::uint64_t> &prints,
                std::uint64_t next);

/** The three workloads; each fills @p rep for opt.trace's metric set. */
void runSweepWorkload(const Options &opt, Report &rep);
void runIntervalWorkload(const Options &opt, Report &rep);
void runServeWorkload(const Options &opt, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
