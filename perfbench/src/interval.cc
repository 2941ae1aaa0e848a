/**
 * @file
 * The interval workload: sim::runIntervals in sampled mode over
 * seed-instantiated scaledLoopNest / scaledPointerChase /
 * scaledCallTree programs (1.8M to 2.2M dynamic instructions) whose
 * 2^17-word footprints exceed the 64K-word E-cache, at the setting of
 * experiment E15: 12 intervals, 12k-instruction warm-up, 16k-
 * instruction sampled windows, 4 workers.
 *
 * ISS planning, checkpoint copies and warm-up dominate; the pipeline
 * runs only in the windows. One operation is one round: each program's
 * interval run, in turn. A single run's time is mostly its serial ISS
 * planning pass, so it takes the speed of whichever vCPU that pass
 * lands on, and single runs cluster around a fast and a slow time; a
 * round's median does not jump between the two. Instructions count the
 * whole run each estimate covers (planInstructions), not just the
 * simulated windows.
 *
 * This is the only workload that trades accuracy for speed, so it
 * reports the estimate's agreement with monolithic runs, made once in
 * set-up. The agreement is taken on the fixed --suite scaled programs
 * at the same setting, not on the seeded ones: a seeded loop nest's
 * error depends on whether its random stride revisits E-cache lines
 * (+2% or +45% at this setting), which would make the figure a
 * property of the seed rather than of the simulator. The seeded
 * programs' own errors are in the traced run's breakdown.
 */

#include <algorithm>
#include <cmath>
#include <thread>

#include "common.hh"
#include "sim/interval.hh"
#include "sim/machine.hh"
#include "trace/metrics.hh"
#include "workload/prepared.hh"
#include "workload/workload.hh"

namespace perfbench
{

namespace
{

/** runIntervals workers: the benchmark's budget of four threads. */
constexpr unsigned intervalJobs = 4;

std::vector<workload::Workload>
intervalPrograms(std::uint64_t seed)
{
    SeedRng rng(seed);
    return {
        workload::scaledLoopNest("loopnest", 1u << 17, 1, rng.next32()),
        workload::scaledPointerChase("chase", 1u << 17, 200000,
                                     rng.next32()),
        workload::scaledCallTree("calltree", 1u << 17, 14, 2, rng.next32()),
    };
}

sim::IntervalConfig
intervalConfig(const workload::Workload &w, unsigned jobs)
{
    sim::IntervalConfig ic;
    ic.intervals = 12;
    ic.warmup = 12000;
    ic.sample = 16000;
    ic.jobs = jobs;
    ic.totalHint = w.dynamicEstimate;
    ic.phases = w.dynamicPhases;
    return ic;
}

/** One program, prepared, with its monolithic reference. */
struct Program
{
    workload::Workload w;
    workload::PreparedPtr prep;
    std::uint64_t monoCycles = 0;
};

std::vector<Program>
prepare(const std::vector<workload::Workload> &ws)
{
    std::vector<Program> out;
    for (const auto &w : ws) {
        Program p;
        p.w = w;
        p.prep = workload::PreparedCache::global().get(w, {}, false);
        out.push_back(std::move(p));
    }
    return out;
}

/**
 * Run each program monolithically, one thread per program (three, so
 * within the budget of four): the accuracy reference.
 */
void
runReference(Report &rep, std::vector<Program> &ps)
{
    std::vector<char> halted(ps.size(), 0);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < ps.size(); ++i)
        threads.emplace_back([&, i] {
            sim::Machine m{sim::MachineConfig{}};
            m.load(ps[i].prep->image, &ps[i].prep->decoded);
            halted[i] = m.run().halted();
            ps[i].monoCycles = m.counters().pipeline.cycles;
        });
    for (auto &t : threads)
        t.join();
    for (std::size_t i = 0; i < ps.size(); ++i)
        rep.check(halted[i], ps[i].w.name + " monolithic run did not halt");
}

sim::IntervalResult
runOne(const Program &p, unsigned jobs)
{
    return sim::runIntervals(p.prep->image, sim::MachineConfig{},
                             intervalConfig(p.w, jobs), &p.prep->decoded);
}

/** Signed error of the estimate against the monolithic run, in %. */
double
errPct(const sim::IntervalResult &r, const Program &p)
{
    return (double(r.estimated.pipeline.cycles) - double(p.monoCycles)) /
        double(p.monoCycles) * 100.0;
}

/** 100 minus the summed |estimate - monolithic| over summed monolithic. */
double
accuracyPct(const std::vector<sim::IntervalResult> &rs,
            const std::vector<Program> &ps)
{
    double diff = 0, total = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        diff += std::abs(double(rs[i].estimated.pipeline.cycles) -
                         double(ps[i].monoCycles));
        total += double(ps[i].monoCycles);
    }
    return 100.0 * (1.0 - diff / total);
}

bool
sameResult(const sim::IntervalResult &a, const sim::IntervalResult &b)
{
    return a.pieces == b.pieces && a.estimated == b.estimated &&
        a.planInstructions == b.planInstructions && a.passed == b.passed;
}

void
checkRun(Report &rep, const sim::IntervalResult &r, const Program &p)
{
    rep.check(r.passed && r.intervalRan,
              p.w.name + " did not halt through its self-check in "
                         "interval mode (or fell back to monolithic)");
}

struct ReplayTotals
{
    std::uint64_t planIss = 0, pieces = 0;
    std::uint64_t warmup = 0, window = 0;
    sim::MachineCounters stitched;
};

/**
 * One pass over the programs through the layers' entry points, single-
 * threaded: prepare (PreparedCache::get; the toolchain on first use),
 * runIntervals on one worker, and its metrics snapshot. Returns how
 * many results differ from the measured 4-worker runs.
 */
std::uint64_t
replayIntervals(Tracer &tr, ReplayPrep &prep,
                const std::vector<Program> &ps,
                const std::vector<sim::IntervalResult> &measured,
                ReplayTotals &tot)
{
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const auto p = prep.get(tr, ps[i].w, {}, i);
        const auto r = tr.span("interval", [&] {
            return sim::runIntervals(p->image, sim::MachineConfig{},
                                     intervalConfig(ps[i].w, 1),
                                     &p->decoded);
        });
        tr.span("trace", [&] {
            trace::MetricsRegistry reg;
            sim::collectMetrics(r, reg);
            return reg.size();
        });
        if (!sameResult(r, measured[i]))
            ++bad;
        tot.planIss += r.planIssInstructions;
        tot.pieces += r.pieces.size();
        tot.warmup += r.warmupInstructions;
        tot.window += r.stitched.pipeline.committed;
        sim::accumulateCounters(tot.stitched, r.stitched);
    }
    return bad;
}

/**
 * ISS speed, from a separate functional run: runIntervals plans on the
 * ISS inside one call and exposes no timing of that pass, so the
 * programs run whole through runIss in block mode (the engine the
 * planner uses), outside the replay. The median of three passes, in ns
 * per executed instruction. Returns 0 if a run did not halt.
 */
double
issNsPerInstr(const std::vector<Program> &ps)
{
    std::vector<double> passes;
    for (int k = 0; k < 3; ++k) {
        std::uint64_t steps = 0;
        double seconds = 0;
        for (const auto &p : ps) {
            memory::MainMemory mem;
            sim::IssConfig ic;
            ic.mode = sim::IssMode::Delayed;
            ic.branchDelay = sim::MachineConfig{}.cpu.branchDelay;
            ic.exec = sim::IssExec::Block;
            const auto t0 = Clock::now();
            const auto r = sim::runIss(p.prep->image, mem, ic);
            seconds += secondsBetween(t0, Clock::now());
            if (r.reason != sim::IssStop::Halt)
                return 0;
            steps += r.stats.steps;
        }
        passes.push_back(seconds * 1e9 / double(steps));
    }
    return percentile(passes, 0.5);
}

void
tracedRun(const Options &opt, Report &rep, std::vector<Program> &ps,
          const std::vector<Program> &fixed,
          const workload::PreparedCacheStats &cacheStats)
{
    runReference(rep, ps);
    std::vector<sim::IntervalResult> measured;
    for (const auto &p : ps) {
        measured.push_back(runOne(p, intervalJobs));
        checkRun(rep, measured.back(), p);
        rep.set("interval.cycle_err_pct." + p.w.name,
                errPct(measured.back(), p));
    }
    rep.set("interval.cycle_err_pct", 100.0 - accuracyPct(measured, ps));

    // The fixed scaled suite at the same setting: a deterministic
    // simulator reproduces its per-program errors exactly, every run.
    for (const auto &p : fixed) {
        const auto r = runOne(p, intervalJobs);
        checkRun(rep, r, p);
        rep.set("interval.cycle_err_pct." + p.w.name, errPct(r, p));
    }

    std::uint64_t bad = 0;
    ReplayPrep prep;
    ReplayTotals tot;
    Tracer traced(true);
    const auto walls = timeReplays(traced, [&](Tracer &tr) {
        prep = ReplayPrep{};
        tot = ReplayTotals{};
        bad += replayIntervals(tr, prep, ps, measured, tot);
    });
    rep.checkMany(5 * ps.size(), bad,
                  "interval results differ between 1 and 4 workers");

    // The interval engine's windows run on Machines inside
    // runIntervals, so there is no machine span to divide here.
    setLayerMetrics(rep, traced, walls, prep, 0, cacheStats);
    setMachineRatios(rep, tot.stitched);
    const double issNs = issNsPerInstr(ps);
    rep.check(issNs > 0, "a functional ISS run did not halt");
    rep.set("iss.ns_per_instr", issNs);
    rep.set("iss.instructions", double(tot.planIss));
    rep.set("interval.pieces", double(tot.pieces));
    rep.set("interval.warmup_instr", double(tot.warmup));
    rep.set("interval.window_instr", double(tot.window));
    rep.note(strformat("seed %llu: %zu programs replayed",
                       static_cast<unsigned long long>(opt.seed), ps.size()));
}

} // namespace

void
runIntervalWorkload(const Options &opt, Report &rep)
{
    std::vector<Program> ps, fixed;
    std::vector<std::uint64_t> prints;
    SetupTimer setup(
        [&] {
            ps = {};
            fixed = {};
            workload::PreparedCache::global().clear();
        },
        [&] {
            const auto ws = intervalPrograms(opt.seed);
            prints.push_back(fingerprint(sources(ws)));
            ps = prepare(ws);
            fixed = prepare(workload::scaledWorkloads());
            runReference(rep, fixed);
        });
    const auto checkSeedsOnce = [&] {
        checkSeeds(rep, prints,
                   fingerprint(sources(intervalPrograms(opt.seed + 1))));
    };
    if (opt.trace) {
        setup.finish();
        checkSeedsOnce();
        // The runs take their images from ps and fixed, so set-up's
        // preparation is the workload's only PreparedCache use.
        tracedRun(opt, rep, ps, fixed,
                  workload::PreparedCache::global().stats());
        return;
    }
    setup.start();

    // Timed: rounds over the programs until the time is up. Rates are
    // medians over rounds and the tail a median over slices, so a burst
    // of host noise in one round cannot move them on its own. Set-up
    // samples run between rounds, outside the timed wall.
    std::vector<double> roundMs, roundInstrRate, roundOpRate;
    std::vector<sim::IntervalResult> first(ps.size());
    std::vector<bool> seen(ps.size(), false);
    std::uint64_t roundInstr = 0, ops = 0, drift = 0;
    const auto t0 = Clock::now();
    auto roundStart = t0;
    double wall = 0, paused = 0;
    do {
        const std::size_t i = ops % ps.size();
        if (i == 0) {
            paused += setup.catchUp(wall / opt.seconds);
            roundStart = Clock::now();
        }
        auto r = runOne(ps[i], intervalJobs);
        const auto e = Clock::now();
        wall = secondsBetween(t0, e) - paused;
        ++ops;
        roundInstr += r.planInstructions;
        if (ops % ps.size() == 0) {
            const double roundWall = secondsBetween(roundStart, e);
            roundMs.push_back(roundWall * 1e3);
            roundInstrRate.push_back(double(roundInstr) / roundWall);
            roundOpRate.push_back(double(ps.size()) / roundWall);
            roundInstr = 0;
        }
        checkRun(rep, r, ps[i]);
        if (!seen[i]) {
            first[i] = std::move(r);
            seen[i] = true;
        } else if (!sameResult(r, first[i])) {
            ++drift;
        }
    } while (wall < opt.seconds || ops % ps.size() != 0);
    rep.checkMany(ops, drift, "interval results differ between repeats");
    const double setupSeconds = setup.finish();
    checkSeedsOnce();

    // Every program on one worker must reproduce the 4-worker result.
    for (std::size_t i = 0; i < ps.size(); ++i)
        rep.check(sameResult(runOne(ps[i], 1), first[i]),
                  ps[i].w.name + " differs between 1 and 4 workers");
    std::vector<sim::IntervalResult> fixedRuns;
    for (const auto &p : fixed) {
        fixedRuns.push_back(runOne(p, intervalJobs));
        checkRun(rep, fixedRuns.back(), p);
    }

    rep.set("setup_s", setupSeconds);
    rep.set("instr_per_host_s", percentile(roundInstrRate, 0.5));
    rep.set("peak_rss_mb", peakRssMb());
    rep.set("p50_ms", percentile(roundMs, 0.50));
    rep.set("p99_ms", segmentedPercentile(roundMs, tailSegments, 0.99));
    rep.set("max_rate_per_s", percentile(roundOpRate, 0.5));
    rep.set("cycle_accuracy_pct", accuracyPct(fixedRuns, fixed));
    for (std::size_t i = 0; i < fixed.size(); ++i)
        rep.note(strformat("%-16s mono %9llu cycles  estimate %+.2f%%",
                           fixed[i].w.name.c_str(),
                           static_cast<unsigned long long>(
                               fixed[i].monoCycles),
                           errPct(fixedRuns[i], fixed[i])));
    rep.note(strformat("seed %llu: %llu interval runs in %.3f s",
                       static_cast<unsigned long long>(opt.seed),
                       static_cast<unsigned long long>(ops), wall));
}

} // namespace perfbench
