/**
 * @file
 * The sweep workload: explore::runSweep over the full suite plus three
 * seed-generated programs, on a grid that mixes machine axes (I-cache
 * geometry, E-cache size) with reorganizer axes (branch scheme,
 * scheduler), then writeJson/writeCsv of the result.
 *
 * Many short cold-start runs, so the pipeline and the cache models do
 * most of the work. The toolchain runs once per reorg variant and
 * program, in set-up, which fills the PreparedCache the timed passes
 * share; the ISS and serve never run. One operation is one grid point
 * (the whole suite at one setting).
 */

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common.hh"
#include "common/sim_error.hh"
#include "explore/explore.hh"
#include "explore/grid.hh"
#include "sim/machine.hh"
#include "workload/prepared.hh"
#include "workload/suite_runner.hh"
#include "workload/workload.hh"

namespace perfbench
{

namespace
{

/** Suite-runner workers: the benchmark's budget of four threads. */
constexpr unsigned sweepJobs = 4;

/** The full suite plus three small programs generated from @p seed. */
std::vector<workload::Workload>
sweepSuite(std::uint64_t seed)
{
    auto ws = workload::fullSuite();
    SeedRng rng(seed);
    ws.push_back(
        workload::scaledLoopNest("seed_loopnest", 2048, 2, rng.next32()));
    ws.push_back(workload::scaledPointerChase("seed_chase", 2048, 6000,
                                              rng.next32()));
    ws.push_back(
        workload::scaledCallTree("seed_calltree", 2048, 9, 2, rng.next32()));
    return ws;
}

/**
 * 3 x 3 machine settings x 2 x 2 reorg variants = 36 points. The reorg
 * axes vary fastest, so each pass builds its four reorg variants in
 * its first four points and reuses them afterwards.
 */
explore::SweepConfig
sweepConfig(unsigned jobs)
{
    explore::SweepConfig c;
    c.suite = "full";
    c.grid.axes = {
        {"icache.geometry", {"4x8x16", "8x4x16", "2x8x16"}},
        {"ecache.sizeWords", {"4096", "16384", "65536"}},
        {"branch.scheme", {"no-squash", "squash-optional"}},
        {"reorg.scheduler", {"heuristic", "list"}},
    };
    c.runner.jobs = jobs;
    return c;
}

/** Prepare every (program, reorg variant) of the grid: the toolchain. */
void
prepareAll(const explore::SweepConfig &cfg,
           const std::vector<workload::Workload> &suite)
{
    auto &cache = workload::PreparedCache::global();
    for (const auto &pt : explore::expandGrid(cfg.grid)) {
        workload::SuiteRunOptions o = cfg.runner;
        explore::applyPoint(o, pt);
        for (const auto &w : suite)
            cache.get(w, o.reorg, o.useProfiles);
    }
}

std::string
emitJson(const explore::SweepResult &r)
{
    std::ostringstream os;
    explore::writeJson(os, r);
    return os.str();
}

/** Simulated-cycle agreement of @p got with @p ref, point by point. */
double
cycleAccuracyPct(const explore::SweepResult &got,
                 const explore::SweepResult &ref)
{
    double diff = 0, total = 0;
    for (std::size_t i = 0; i < ref.points.size(); ++i) {
        const double c = double(ref.points[i].stats.cycles);
        const double g = i < got.points.size()
            ? double(got.points[i].stats.cycles)
            : 0.0;
        diff += std::abs(g - c);
        total += c;
    }
    return total > 0 ? 100.0 * (1.0 - diff / total) : 0.0;
}

void
checkPoints(Report &rep, const explore::SweepResult &r)
{
    std::uint64_t bad = 0;
    for (const auto &p : r.points)
        bad += p.failures.empty() ? 0 : 1;
    rep.checkMany(r.points.size(), bad,
                  "sweep points whose programs missed their self-check");
}

/**
 * One sweep pass replayed through the layers' entry points, single-
 * threaded: bind each point's options (explore), prepare each program
 * (assembler, reorg, predecode on first use; PreparedCache::get),
 * Machine::load and run (machine), the point's metrics snapshot
 * (trace), then writeJson/writeCsv (explore.emit). Returns the number
 * of points whose totals differ from the measured pass.
 */
std::uint64_t
replaySweep(Tracer &tr, ReplayPrep &prep, const explore::SweepConfig &cfg,
            const std::vector<workload::Workload> &suite,
            const explore::SweepResult &measured,
            sim::MachineCounters &tot, std::uint64_t &emitBytes)
{
    const auto points = explore::expandGrid(cfg.grid);
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto opts = tr.span("explore", [&] {
            workload::SuiteRunOptions o = cfg.runner;
            for (const auto &[param, value] : cfg.base)
                explore::applyParam(o, param, value);
            explore::applyPoint(o, points[i]);
            return o;
        });
        sim::MachineCounters point;
        for (std::size_t k = 0; k < suite.size(); ++k) {
            const auto p = prep.get(tr, suite[k], opts.reorg, k);
            sim::MachineCounters c;
            tr.span("machine", [&] {
                sim::Machine m(opts.machine);
                m.memory().setPredecodeEnabled(opts.predecode);
                m.load(p->image, opts.predecode ? &p->decoded : nullptr);
                if (!m.run().halted())
                    ++mismatches;
                c = m.steadyCounters();
            });
            sim::accumulateCounters(point, c);
        }
        sim::accumulateCounters(tot, point);
        const auto &mp = measured.points.at(i);
        tr.span("trace", [&] {
            trace::MetricsRegistry reg;
            workload::collectMetrics(mp.stats, reg, "suite");
            workload::collectEnergy(mp.stats, opts.machine.cpu.energy, reg,
                                    "energy");
            return reg.size();
        });
        if (point.pipeline.cycles != mp.stats.cycles ||
            point.pipeline.committed != mp.stats.committed)
            ++mismatches;
    }
    emitBytes = tr.span("explore.emit", [&] {
        std::ostringstream js, cs;
        explore::writeJson(js, measured);
        explore::writeCsv(cs, measured);
        return js.str().size() + cs.str().size();
    });
    return mismatches;
}

void
tracedRun(const Options &opt, Report &rep,
          const std::vector<workload::Workload> &suite,
          const explore::SweepConfig &cfg)
{
    // The measured path once, untraced, from an empty PreparedCache: it
    // fills the cache the replay's get() calls hit, its hit and miss
    // counts are the workload.prepared_* figures, and its results are
    // what the replay must match.
    auto &cache = workload::PreparedCache::global();
    cache.clear();
    const auto measured = explore::runSweep(cfg, suite);
    const auto cacheStats = cache.stats();
    checkPoints(rep, measured);

    std::uint64_t emitBytes = 0, bad = 0;
    ReplayPrep prep;
    sim::MachineCounters tot;
    Tracer traced(true);
    const auto walls = timeReplays(traced, [&](Tracer &tr) {
        prep = ReplayPrep{};
        tot = sim::MachineCounters{};
        bad += replaySweep(tr, prep, cfg, suite, measured, tot, emitBytes);
    });
    rep.checkMany(5 * measured.points.size(), bad,
                  "replayed sweep points that differ from runSweep");

    setLayerMetrics(rep, traced, walls, prep, tot.pipeline.committed,
                    cacheStats);
    setMachineRatios(rep, tot);
    rep.set("explore.points", double(measured.points.size()));
    rep.set("explore.emit_bytes", double(emitBytes));
    rep.note(strformat("seed %llu: %zu programs x %zu points replayed",
                       static_cast<unsigned long long>(opt.seed),
                       suite.size(), measured.points.size()));
}

} // namespace

void
runSweepWorkload(const Options &opt, Report &rep)
{
    std::vector<workload::Workload> suite;
    explore::SweepConfig cfg;
    std::vector<std::uint64_t> prints;
    SetupTimer setup(
        [&] {
            suite = {};
            workload::PreparedCache::global().clear();
        },
        [&] {
            suite = sweepSuite(opt.seed);
            cfg = sweepConfig(sweepJobs);
            prints.push_back(fingerprint(sources(suite)));
            prepareAll(cfg, suite);
        });
    if (opt.trace) {
        setup.finish();
        checkSeeds(rep, prints,
                   fingerprint(sources(sweepSuite(opt.seed + 1))));
        tracedRun(opt, rep, suite, cfg);
        return;
    }
    setup.start();

    // Timed: whole passes, each from runSweep to the emitted CSV and
    // JSON, until the time is up. Rates are medians over passes and the
    // tail a median over slices, so a burst of host noise in one pass
    // cannot move them on its own. Set-up samples run between passes,
    // outside the timed wall.
    std::vector<double> pointMs, passInstrRate, passPointRate;
    std::uint64_t points = 0;
    std::string firstJson, firstCsv;
    explore::SweepResult first;
    const auto t0 = Clock::now();
    double wall = 0, paused = 0;
    do {
        paused += setup.catchUp(wall / opt.seconds);
        const auto passStart = Clock::now();
        auto last = passStart;
        auto r = explore::runSweep(
            cfg, suite,
            [&](std::size_t, std::size_t, const explore::SweepPointResult &) {
                const auto now = Clock::now();
                pointMs.push_back(secondsBetween(last, now) * 1e3);
                last = now;
            });
        std::ostringstream csv;
        explore::writeCsv(csv, r);
        const std::string json = emitJson(r);
        const auto passEnd = Clock::now();
        wall = secondsBetween(t0, passEnd) - paused;

        checkPoints(rep, r);
        std::uint64_t instructions = 0;
        for (const auto &p : r.points)
            instructions += p.stats.committed;
        const double passWall = secondsBetween(passStart, passEnd);
        passInstrRate.push_back(double(instructions) / passWall);
        passPointRate.push_back(double(r.points.size()) / passWall);
        points += r.points.size();
        if (firstJson.empty()) {
            firstJson = json;
            firstCsv = csv.str();
            first = std::move(r);
        } else {
            rep.check(json == firstJson && csv.str() == firstCsv,
                      "sweep JSON or CSV differs between passes");
        }
    } while (wall < opt.seconds);

    const double setupSeconds = setup.finish();
    checkSeeds(rep, prints, fingerprint(sources(sweepSuite(opt.seed + 1))));

    // The same sweep on one worker must emit byte-identical JSON.
    const auto serial = explore::runSweep(sweepConfig(1), suite);
    rep.check(emitJson(serial) == firstJson,
              "sweep JSON differs between 1 and 4 workers");

    rep.set("setup_s", setupSeconds);
    rep.set("instr_per_host_s", percentile(passInstrRate, 0.5));
    rep.set("peak_rss_mb", peakRssMb());
    rep.set("p50_ms", percentile(pointMs, 0.50));
    rep.set("p99_ms", segmentedPercentile(pointMs, tailSegments, 0.99));
    rep.set("max_rate_per_s", percentile(passPointRate, 0.5));
    rep.set("cycle_accuracy_pct", cycleAccuracyPct(first, serial));
    rep.note(strformat("seed %llu: %zu programs, %llu points in %.3f s "
                       "(%zu per pass, %u workers)",
                       static_cast<unsigned long long>(opt.seed),
                       suite.size(), static_cast<unsigned long long>(points),
                       wall, first.points.size(), sweepJobs));
}

} // namespace perfbench
