/**
 * @file
 * The serve workload: one open-loop generator thread feeds an
 * in-process serve::Server through parseJobRequest, submit and
 * formatReply (three workers, so generator plus workers stay within
 * the benchmark's budget of four threads).
 *
 * The job mix has two kinds of "run" job. Shared jobs are drawn as
 * mipsx-serve --bench draws its jobs (src/serve/bench.cc): round robin
 * over the suite, with an icache.fetchWords binding on every other one,
 * so each program's prepared image is shared across both machines.
 * Unique jobs send a seed-generated small scaled program inline as
 * "program", so each one misses the PreparedCache and pays the
 * toolchain.
 * This is the only workload with queueing, request parse/format and
 * per-job toolchain misses.
 *
 * Timed phases, each from an empty PreparedCache like a fresh server:
 *  - the reference rate, open loop, in five slices spread over the run:
 *    every job is timed from the moment it was due, so a stall also
 *    charges the jobs queued behind it (p50_ms, p99_ms), and the
 *    generator's own lateness is recorded;
 *  - a fixed geometric rate ladder, searched by bisection for its
 *    highest rung whose p99 meets the limit without a growing backlog;
 *    three searches spread over the run, the later two within four
 *    rungs of the first, and max_rate_per_s is their median;
 *  - saturation batches submitted as fast as the queue accepts them
 *    (instr_per_host_s, the service's capacity), spread over the run.
 * Every reply is then checked byte for byte against the deterministic
 * reply for the same request.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "common.hh"
#include "explore/grid.hh"
#include "serve/serve.hh"
#include "sim/machine.hh"
#include "trace/metrics.hh"
#include "workload/prepared.hh"
#include "workload/suite_runner.hh"
#include "workload/workload.hh"

namespace perfbench
{

namespace
{

/** Server workers; the generator thread is the fourth. */
constexpr unsigned serveWorkers = 3;
/**
 * Open-loop rate of the latency phase, jobs per second: about a
 * quarter of this mix's saturation capacity, which the saturation
 * batches measured at 3.3k to 3.4k jobs/s (15-second runs, 4-vCPU
 * x86-64 VM), so the queue is short and latency is mostly service
 * time. Fixed, so a slower server shows as higher latency at the same
 * offered load; each run prints the capacity it measured.
 */
constexpr double referenceRate = 800;
/**
 * The p99 latency limit of the rate ladder. An assumption, not a
 * requirement from any source: about four times the p99 this mix
 * shows at the reference rate on the same VM (6.5 ms), so a rung
 * fails once queueing, not service time, sets the tail.
 */
constexpr double p99LimitMs = 25;
/**
 * The fixed rate ladder: rung k offers ladderBase * 1.06^k jobs/s,
 * from half the reference rate up past the capacity. Adjacent rungs
 * are 6% apart, a quarter of max_rate_per_s's bound.
 */
constexpr double ladderBase = referenceRate / 2;
constexpr double ladderRatio = 1.06;
constexpr int ladderRungs = 53; // up to ~8.3k jobs/s
/**
 * Share of jobs that send a unique inline program. An assumption: no
 * source gives the mix of a real batch, and mipsx-serve --bench sends
 * none. What it costs shows in the traced run: at this share the
 * toolchain spans (assembler, reorg, predecode) take about 6% of the
 * serve replay's time and the machine about 85%.
 */
constexpr double uniqueShare = 0.15;
/** Shared-job bindings, alternating as in mipsx-serve --bench. */
const std::vector<std::pair<const char *, const char *>> configs = {
    {nullptr, nullptr},
    {"icache.fetchWords", "2"},
};

/**
 * Phase sizes per second of --seconds. The reference-rate jobs take
 * 0.35 of the time; a ladder probe takes 0.035 of it, capped at
 * probeJobsPerSecond jobs; each saturation batch has
 * batchJobsPerSecond jobs. A probe at its cap and a batch are the
 * largest phases, whichever rungs the search visits, so they set the
 * peak memory. Host speed drifts by some 10% from one second to the
 * next, so the reference slices and the saturation batches are spread
 * over the run between probes, and each figure is a median over them.
 */
constexpr double referenceShare = 0.35;
constexpr double probeShare = 0.035;
constexpr double probeJobsPerSecond = 100;
constexpr double batchJobsPerSecond = 100;
constexpr int saturationBatches = 5;

double
rungRate(int k)
{
    return ladderBase * std::pow(ladderRatio, k);
}

struct Job
{
    std::string id;
    std::string line;
    /** What the reply depends on: (program, config) or a pool index. */
    unsigned content = 0;
};

/** One phase's job list and what it produced. */
struct Phase
{
    double rate = 0; ///< jobs/s; 0 = as fast as the queue accepts
    std::vector<Job> jobs;
    std::vector<std::string> replies;
    std::vector<std::uint64_t> seqs;
    std::vector<double> latencyMs, lateMs;
    std::vector<double> doneAt; ///< completion, seconds after the start
    std::vector<std::uint64_t> instructions;
    double submitWaitMs = 0;
    std::uint64_t backlogAtEnd = 0;
    double wall = 0;
};

/** Everything generated from the seed. */
struct Batch
{
    std::vector<workload::Workload> suite;
    std::vector<std::string> pool; ///< unique inline program sources
    Phase reference;
    std::vector<Job> probe; ///< a ladder probe runs a prefix of these
    Phase saturation;
};

std::vector<std::string>
poolPrograms(std::uint64_t seed, std::size_t n)
{
    SeedRng rng(seed);
    std::vector<std::string> out;
    std::set<std::string> seen;
    while (out.size() < n) {
        // A small pointer chase depends on 24 bits of its seed only, so
        // two draws can collide; a repeat would be a cache hit.
        const std::uint32_t s = rng.next32();
        std::string src;
        switch (out.size() % 3) {
          case 0:
            src = workload::scaledLoopNest("u", 1024, 1, s).source;
            break;
          case 1:
            src = workload::scaledPointerChase("u", 1024, 3000, s).source;
            break;
          default:
            src = workload::scaledCallTree("u", 1024, 8, 1, s).source;
            break;
        }
        if (seen.insert(src).second)
            out.push_back(std::move(src));
    }
    return out;
}

std::size_t
phaseJobs(double rate, double seconds)
{
    return static_cast<std::size_t>(std::ceil(rate * seconds));
}

/** Job contents below this are (suite program, config) pairs. */
unsigned
sharedContents(const Batch &b)
{
    return static_cast<unsigned>(b.suite.size() * configs.size());
}

/**
 * The phase's jobs; unique programs restart at pool index 0, and the
 * shared jobs continue the round robin from @p nextShared.
 */
void
fillPhase(Phase &ph, std::size_t n, SeedRng &rng, const Batch &b,
          std::uint64_t &nextId, std::uint64_t &nextShared)
{
    const unsigned shared = sharedContents(b);
    std::size_t unique = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Job j;
        j.id = strformat("r%llu", static_cast<unsigned long long>(nextId++));
        std::string body;
        if (double(rng.below(1u << 20)) < uniqueShare * double(1u << 20) &&
            unique < b.pool.size()) {
            j.content = shared + static_cast<unsigned>(unique);
            body = ",\"program\":" + serve::jsonQuote(b.pool[unique++]);
        } else {
            const std::uint64_t k = nextShared++;
            const auto w = static_cast<unsigned>(k % b.suite.size());
            const auto c = static_cast<unsigned>(k % configs.size());
            j.content = w * static_cast<unsigned>(configs.size()) + c;
            body = ",\"workload\":" + serve::jsonQuote(b.suite[w].name);
            if (configs[c].first)
                body += strformat(",\"config\":{\"%s\":%s}", configs[c].first,
                                  configs[c].second);
        }
        j.line = "{\"op\":\"run\",\"id\":" + serve::jsonQuote(j.id) + body +
            "}";
        ph.jobs.push_back(std::move(j));
    }
}

Batch
generate(std::uint64_t seed, double seconds)
{
    Batch b;
    b.suite = workload::fullSuite();
    const std::size_t ref = phaseJobs(referenceRate, referenceShare * seconds);
    const std::size_t probe = phaseJobs(probeJobsPerSecond, seconds);
    const std::size_t sat = phaseJobs(batchJobsPerSecond, seconds);
    b.pool = poolPrograms(seed, static_cast<std::size_t>(
                                    double(std::max({ref, probe, sat})) *
                                    uniqueShare * 1.5) +
                                    16);
    SeedRng rng(seed ^ 0x6a6f6273ull);
    std::uint64_t nextId = 0, nextShared = 0;
    b.reference.rate = referenceRate;
    fillPhase(b.reference, ref, rng, b, nextId, nextShared);
    Phase probes;
    fillPhase(probes, probe, rng, b, nextId, nextShared);
    b.probe = std::move(probes.jobs);
    fillPhase(b.saturation, sat, rng, b, nextId, nextShared);
    return b;
}

std::vector<std::string>
allLines(const Batch &b)
{
    std::vector<std::string> lines;
    const auto add = [&](const Phase &ph) {
        for (const auto &j : ph.jobs)
            lines.push_back(j.line);
    };
    add(b.reference);
    for (const auto &j : b.probe)
        lines.push_back(j.line);
    add(b.saturation);
    return lines;
}

std::uint64_t
scrape(const std::string &json, const char *key)
{
    const auto pos = json.find(key);
    return pos == std::string::npos
        ? 0
        : std::strtoull(json.c_str() + pos + std::strlen(key), nullptr, 10);
}

/**
 * Drive one phase through @p server: open loop at ph.rate (each job
 * due at start + i / rate), or as fast as submit() accepts with rate 0.
 */
void
runPhase(serve::Server &server, Phase &ph)
{
    workload::PreparedCache::global().clear();
    const std::size_t n = ph.jobs.size();
    ph.replies.assign(n, {});
    ph.seqs.assign(n, 0);
    ph.latencyMs.assign(n, 0);
    ph.lateMs.assign(n, 0);
    ph.doneAt.assign(n, 0);
    ph.instructions.assign(n, 0);
    ph.submitWaitMs = 0;
    std::atomic<std::uint64_t> completed{0};

    // An open loop starts 1 ms out, so job 0 is not already late.
    const auto t0 =
        Clock::now() + std::chrono::milliseconds(ph.rate > 0 ? 1 : 0);
    for (std::size_t i = 0; i < n; ++i) {
        auto due = Clock::now();
        if (ph.rate > 0) {
            due = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(double(i) /
                                                         ph.rate));
            std::this_thread::sleep_until(due);
            ph.lateMs[i] = secondsBetween(due, Clock::now()) * 1e3;
        }
        auto req = serve::parseJobRequest(ph.jobs[i].line);
        const auto s0 = Clock::now();
        server.submit(std::move(req), [&ph, &completed, i, due,
                                       t0](std::uint64_t seq,
                                           const serve::JobOutcome &o) {
            ph.replies[i] = serve::formatReply(ph.jobs[i].id, seq, o);
            const auto done = Clock::now();
            ph.latencyMs[i] = secondsBetween(due, done) * 1e3;
            ph.doneAt[i] = secondsBetween(t0, done);
            ph.seqs[i] = seq;
            ph.instructions[i] = scrape(o.resultJson, "\"instructions\":");
            completed.fetch_add(1, std::memory_order_relaxed);
        });
        ph.submitWaitMs += secondsBetween(s0, Clock::now()) * 1e3;
    }
    ph.backlogAtEnd = n - completed.load(std::memory_order_relaxed);
    server.drain();
    ph.wall = secondsBetween(t0, Clock::now());
}

/** A probe's p99: the median of three slices' p99s (see common.hh). */
double
probeP99(const Phase &ph)
{
    return segmentedPercentile(ph.latencyMs, 3, 0.99);
}

bool
stepPasses(const Phase &ph)
{
    return probeP99(ph) <= p99LimitMs &&
        double(ph.backlogAtEnd) <= ph.rate * p99LimitMs / 1e3;
}

struct BatchRate
{
    double instrPerSecond = 0;
    double jobsPerSecond = 0;
};

/**
 * Simulated instructions and jobs per second of a batch phase, taken
 * between its 10th and 90th percentile completion times: the cold
 * start and the drain, when fewer than all workers are busy, are left
 * out.
 */
BatchRate
batchRate(const Phase &ph)
{
    const double from = percentile(ph.doneAt, 0.1);
    const double to = percentile(ph.doneAt, 0.9);
    double instructions = 0, jobs = 0;
    for (std::size_t i = 0; i < ph.doneAt.size(); ++i)
        if (ph.doneAt[i] > from && ph.doneAt[i] <= to) {
            instructions += double(ph.instructions[i]);
            ++jobs;
        }
    return {instructions / (to - from), jobs / (to - from)};
}

/** The deterministic reply of each job content, computed serially. */
class ReferenceReplies
{
  public:
    explicit ReferenceReplies(const serve::ServeConfig &cfg) : cfg_(cfg)
    {
        cfg_.preparedCache = false;
    }

    const serve::JobOutcome &
    outcome(const Job &j)
    {
        auto it = memo_.find(j.content);
        if (it == memo_.end())
            it = memo_
                     .emplace(j.content,
                              serve::runJob(serve::parseJobRequest(j.line),
                                            cfg_))
                     .first;
        return it->second;
    }

  private:
    serve::ServeConfig cfg_;
    std::map<unsigned, serve::JobOutcome> memo_;
};

/** Check every reply of @p ph; returns (cycle diff, reference cycles). */
std::pair<double, double>
checkReplies(Report &rep, ReferenceReplies &ref, const Phase &ph,
             const char *name)
{
    std::uint64_t bad = 0;
    double diff = 0, total = 0;
    for (std::size_t i = 0; i < ph.jobs.size(); ++i) {
        const auto &o = ref.outcome(ph.jobs[i]);
        const auto want = serve::formatReply(ph.jobs[i].id, ph.seqs[i], o);
        if (!o.ok || !o.passed || ph.replies[i] != want)
            ++bad;
        const double c = double(scrape(want, "\"cycles\":"));
        diff += std::abs(double(scrape(ph.replies[i], "\"cycles\":")) - c);
        total += c;
    }
    rep.checkMany(ph.jobs.size(), bad,
                  strformat("%s replies that differ from the deterministic "
                            "reply or missed the self-check",
                            name));
    return {diff, total};
}

/**
 * Jobs of the reference phase the traced run replays: a prefix, which
 * keeps the five replay passes short while leaving thousands of spans
 * per layer.
 */
std::size_t
replayJobs(const Batch &b)
{
    return std::min<std::size_t>(b.reference.jobs.size(), 1200);
}

struct ReplayTotals
{
    std::uint64_t committed = 0;
    sim::MachineCounters counters;
};

/**
 * The reference phase replayed through the layers' entry points,
 * single-threaded and in job order: parseJobRequest (serve.parse), the
 * job's config bindings (explore), prepare (the toolchain on first use;
 * PreparedCache::get), Machine::load and run (machine), the CPU's
 * metrics snapshot (trace), and the reply rendered as the server
 * renders it (serve.format). The job's body is a copy of server.cc's
 * runOneProgram, and serve.format of its private compactMetricsJson:
 * the library runs a job in one call, and the copy splits it so each
 * layer gets a span. Each reply the copy builds is compared byte for
 * byte with the one the server sent, so a copy that drifts from the
 * library fails the run. Returns how many replies differ.
 */
std::uint64_t
replayServe(Tracer &tr, ReplayPrep &prep, const Batch &b,
            const serve::ServeConfig &cfg, ReplayTotals &tot)
{
    const Phase &ph = b.reference;
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < replayJobs(b); ++i) {
        const auto req = tr.span("serve.parse", [&] {
            return serve::parseJobRequest(ph.jobs[i].line);
        });
        const auto opts = tr.span("explore", [&] {
            workload::SuiteRunOptions o;
            for (const auto &[param, value] : req.config)
                explore::applyParam(o, param, value);
            o.machine.attachCounterCop = true;
            o.machine.cpu.maxCycles = cfg.maxCycles;
            return o;
        });
        workload::Workload inlineProgram;
        const workload::Workload *w = &inlineProgram;
        if (req.workload.empty()) {
            inlineProgram.name = "inline";
            inlineProgram.source = req.program;
        } else {
            w = &*std::find_if(b.suite.begin(), b.suite.end(),
                               [&](const auto &x) {
                                   return x.name == req.workload;
                               });
        }
        // Every binding is machine-only, so the program alone picks the
        // image: its suite index, or its pool index past the suite.
        const auto p = prep.get(tr, *w, opts.reorg,
                                ph.jobs[i].content < sharedContents(b)
                                    ? ph.jobs[i].content / configs.size()
                                    : ph.jobs[i].content);
        serve::JobOutcome out;
        trace::MetricsRegistry reg;
        tr.span("machine", [&] {
            sim::Machine m(opts.machine);
            m.memory().setPredecodeEnabled(opts.predecode);
            m.load(p->image, opts.predecode ? &p->decoded : nullptr);
            const auto r = m.run();
            tr.span("trace", [&] { m.cpu().collectMetrics(reg); });
            const auto &st = m.cpu().stats();
            out.ok = true;
            out.passed = r.halted();
            out.resultJson = strformat(
                "{\"stop\":%s,\"passed\":%s,\"cycles\":%llu,"
                "\"instructions\":%llu,",
                serve::jsonQuote(mipsx::core::stopReasonName(r.reason))
                    .c_str(),
                out.passed ? "true" : "false",
                static_cast<unsigned long long>(st.cycles),
                static_cast<unsigned long long>(st.committed));
            tot.committed += st.committed;
            sim::accumulateCounters(tot.counters, m.counters());
        });
        const auto reply = tr.span("serve.format", [&] {
            std::string json = "{";
            for (const auto &[name, value] : reg.formatted()) {
                if (json.size() > 1)
                    json += ',';
                json += serve::jsonQuote(name) + ": " + value;
            }
            out.resultJson += "\"metrics\":" + json + "}}";
            return serve::formatReply(ph.jobs[i].id, ph.seqs[i], out);
        });
        if (reply != ph.replies[i])
            ++bad;
    }
    return bad;
}

void
tracedRun(const Options &opt, Report &rep, Batch &b, serve::Server &server)
{
    // The reference phase starts from an empty PreparedCache and is the
    // server's first work, so its cache counts are that phase's.
    runPhase(server, b.reference);
    const auto st = server.stats();
    ReferenceReplies ref(server.config());
    checkReplies(rep, ref, b.reference, "reference-rate");

    std::uint64_t bad = 0;
    ReplayPrep prep;
    ReplayTotals tot;
    Tracer traced(true);
    const auto walls = timeReplays(traced, [&](Tracer &tr) {
        prep = ReplayPrep{};
        tot = ReplayTotals{};
        bad += replayServe(tr, prep, b, server.config(), tot);
    });
    rep.checkMany(5 * replayJobs(b), bad,
                  "replayed replies that differ from the server's");

    workload::PreparedCacheStats cacheStats;
    cacheStats.hits = st.cacheHits;
    cacheStats.misses = st.cacheMisses;
    setLayerMetrics(rep, traced, walls, prep, tot.committed, cacheStats);
    setMachineRatios(rep, tot.counters);
    rep.set("serve.submit_wait_ms", b.reference.submitWaitMs);
    rep.set("serve.queue_peak", double(st.queuePeak));
    rep.set("serve.late_ms", percentile(b.reference.lateMs, 0.99));
    rep.note(strformat("seed %llu: %zu reference-rate jobs replayed",
                       static_cast<unsigned long long>(opt.seed),
                       replayJobs(b)));
}

} // namespace

void
runServeWorkload(const Options &opt, Report &rep)
{
    serve::ServeConfig cfg;
    cfg.workers = serveWorkers;
    Batch b;
    std::unique_ptr<serve::Server> server;
    std::vector<std::uint64_t> prints;
    SetupTimer setup(
        [&] {
            server.reset();
            b = Batch{};
            workload::PreparedCache::global().clear();
        },
        [&] {
            b = generate(opt.seed, opt.seconds);
            server = std::make_unique<serve::Server>(cfg);
            prints.push_back(fingerprint(allLines(b)));
        });
    const auto checkSeedsOnce = [&] {
        checkSeeds(rep, prints, fingerprint(allLines(
                                    generate(opt.seed + 1, opt.seconds))));
    };
    if (opt.trace) {
        setup.finish();
        checkSeedsOnce();
        tracedRun(opt, rep, b, *server);
        return;
    }
    setup.start();

    // Each phase's replies are checked as soon as it ends (outside the
    // timed part) and then dropped, so no phase holds another's memory.
    // Set-up samples run between phases; a sample rebuilds the batch
    // and the Server identically.
    ReferenceReplies ref(cfg);
    double diff = 0, total = 0;
    const auto t0 = Clock::now();
    double paused = 0;
    const auto runChecked = [&](Phase &ph, const char *name) {
        paused += setup.catchUp(
            (secondsBetween(t0, Clock::now()) - paused) / opt.seconds);
        runPhase(*server, ph);
        const auto [d, t] = checkReplies(rep, ref, ph, name);
        diff += d;
        total += t;
        ph.replies = {};
    };

    // The reference-rate jobs in tailSegments slices, interleaved with
    // the saturation batches between ladder probes.
    std::vector<Phase> slices(tailSegments);
    const auto &refJobs = b.reference.jobs;
    for (std::size_t k = 0; k < slices.size(); ++k) {
        slices[k].rate = referenceRate;
        slices[k].jobs.assign(
            refJobs.begin() + static_cast<std::ptrdiff_t>(
                                  refJobs.size() * k / slices.size()),
            refJobs.begin() + static_cast<std::ptrdiff_t>(
                                  refJobs.size() * (k + 1) / slices.size()));
    }
    std::vector<double> latencyMs, lateMs, sliceP99;
    std::vector<BatchRate> batchRates;
    std::size_t slicesRun = 0;
    const auto runSlice = [&] {
        Phase &ph = slices[slicesRun++];
        runChecked(ph, "reference-rate");
        latencyMs.insert(latencyMs.end(), ph.latencyMs.begin(),
                         ph.latencyMs.end());
        lateMs.insert(lateMs.end(), ph.lateMs.begin(), ph.lateMs.end());
        sliceP99.push_back(percentile(ph.latencyMs, 0.99));
    };
    const auto runFiller = [&] {
        if (slicesRun < slices.size() &&
            slicesRun <= batchRates.size()) {
            runSlice();
        } else if (batchRates.size() < saturationBatches) {
            runChecked(b.saturation, "saturation");
            batchRates.push_back(batchRate(b.saturation));
        } else if (slicesRun < slices.size()) {
            runSlice();
        }
    };
    runSlice();

    // Bisection over the fixed rungs: rung lo meets the limit, rung hi
    // does not (-1 and ladderRungs stand for "below" and "above").
    double bottomP99 = 0;
    const auto search = [&](int lo, int hi) {
        while (hi - lo > 1) {
            const int mid = (lo + hi) / 2;
            Phase ph;
            ph.rate = rungRate(mid);
            const auto n = std::min(
                b.probe.size(), phaseJobs(ph.rate, probeShare * opt.seconds));
            ph.jobs.assign(b.probe.begin(),
                           b.probe.begin() + static_cast<std::ptrdiff_t>(n));
            runChecked(ph, "ladder");
            const bool meets = stepPasses(ph);
            if (mid == 0)
                bottomP99 = probeP99(ph);
            rep.note(strformat("rung %2d %7.0f jobs/s: p99 %8.3f ms, "
                               "backlog %llu at the last due time -> %s",
                               mid, ph.rate, probeP99(ph),
                               static_cast<unsigned long long>(
                                   ph.backlogAtEnd),
                               meets ? "meets" : "misses"));
            (meets ? lo : hi) = mid;
            runFiller();
        }
        return lo;
    };
    const int first = search(-1, ladderRungs);
    std::vector<double> found = {double(first)};
    for (int k = 0; k < 2; ++k)
        found.push_back(search(std::max(-1, first - 4),
                               std::min(ladderRungs, first + 5)));
    const double rung = percentile(found, 0.5);
    while (slicesRun < slices.size() ||
           batchRates.size() < saturationBatches)
        runFiller();
    server->shutdown();
    const double setupSeconds = setup.finish();
    checkSeedsOnce();

    rep.set("setup_s", setupSeconds);
    std::vector<double> instrRates, jobRates;
    for (const auto &r : batchRates) {
        instrRates.push_back(r.instrPerSecond);
        jobRates.push_back(r.jobsPerSecond);
    }
    rep.set("instr_per_host_s", percentile(instrRates, 0.5));
    rep.set("peak_rss_mb", peakRssMb());
    rep.set("p50_ms", percentile(latencyMs, 0.50));
    rep.set("p99_ms", percentile(sliceP99, 0.5));
    rep.set("max_rate_per_s",
            rung >= 0 ? rungRate(static_cast<int>(rung))
                      : rungRate(0) * std::min(1.0, p99LimitMs / bottomP99));
    rep.set("cycle_accuracy_pct", 100.0 * (1.0 - diff / total));
    rep.note(strformat("reference %.0f jobs/s: %zu jobs in %zu slices, "
                       "generator p99 late %.3f ms",
                       referenceRate, refJobs.size(), slices.size(),
                       percentile(lateMs, 0.99)));
    for (const auto &r : batchRates)
        rep.note(strformat("saturation batch of %zu jobs: %.0f instr/s, "
                           "%.0f jobs/s",
                           b.saturation.jobs.size(), r.instrPerSecond,
                           r.jobsPerSecond));
    rep.note(strformat("saturation capacity %.0f jobs/s (median)",
                       percentile(jobRates, 0.5)));
}

} // namespace perfbench
