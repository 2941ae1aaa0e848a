#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "assembler/assembler.hh"
#include "common/sim_error.hh"
#include "memory/decoded_image.hh"
#include "reorg/scheduler.hh"

namespace perfbench
{

namespace
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics, in BENCHMARK.json order (untraced run). */
const MetricSpec endToEnd[] = {
    {"setup_s", "s"},
    {"instr_per_host_s", "instr/s"},
    {"peak_rss_mb", "MB"},
    {"p50_ms", "ms"},
    {"p99_ms", "ms"},
    {"max_rate_per_s", "1/s"},
    {"cycle_accuracy_pct", "%"},
};

/** The per-layer metrics, in BENCHMARK.json order (traced run). */
const MetricSpec perLayer[] = {
    {"machine.ns_per_instr", "ns/instr"},
    {"machine.self_s", "s"},
    {"core.cpi", "cycles/instr"},
    {"memory.icache_miss_ratio", "ratio"},
    {"memory.ecache_miss_ratio", "ratio"},
    {"iss.ns_per_instr", "ns/instr"},
    {"iss.instructions", "count"},
    {"interval.self_s", "s"},
    {"interval.pieces", "count"},
    {"interval.warmup_instr", "count"},
    {"interval.window_instr", "count"},
    {"interval.cycle_err_pct", "%"},
    {"interval.cycle_err_pct.loopnest", "%"},
    {"interval.cycle_err_pct.chase", "%"},
    {"interval.cycle_err_pct.calltree", "%"},
    {"interval.cycle_err_pct.scaled_loopnest", "%"},
    {"interval.cycle_err_pct.scaled_chase", "%"},
    {"interval.cycle_err_pct.scaled_calltree", "%"},
    {"assembler.self_s", "s"},
    {"reorg.self_s", "s"},
    {"memory.predecode_s", "s"},
    {"workload.self_s", "s"},
    {"workload.prepared_hits", "count"},
    {"workload.prepared_misses", "count"},
    {"workload.prepared_hit_ratio", "ratio"},
    {"serve.parse_s", "s"},
    {"serve.format_s", "s"},
    {"serve.submit_wait_ms", "ms"},
    {"serve.queue_peak", "count"},
    {"serve.late_ms", "ms"},
    {"explore.self_s", "s"},
    {"explore.points", "count"},
    {"explore.emit_s", "s"},
    {"explore.emit_bytes", "bytes"},
    {"trace.collect_s", "s"},
    {"tracing.overhead_pct", "%"},
    {"tracing.span_coverage_pct", "%"},
    {"tracing.gap_s", "s"},
};

} // namespace

std::uint64_t
SeedRng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
fingerprint(const std::vector<std::string> &parts)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &s : parts) {
        for (const unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        h ^= 0xff; // separator: {"ab"} and {"a","b"} differ
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<std::string>
sources(const std::vector<workload::Workload> &ws)
{
    std::vector<std::string> s;
    for (const auto &w : ws)
        s.push_back(w.source);
    return s;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * double(v.size()));
    const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
segmentedPercentile(const std::vector<double> &v, unsigned segments, double q)
{
    std::vector<double> per;
    for (unsigned k = 0; k < segments; ++k) {
        const auto lo = v.size() * k / segments;
        const auto hi = v.size() * (k + 1) / segments;
        if (hi > lo)
            per.push_back(percentile(
                {v.begin() + static_cast<std::ptrdiff_t>(lo),
                 v.begin() + static_cast<std::ptrdiff_t>(hi)},
                q));
    }
    return percentile(per, 0.5);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

void
SetupTimer::sample()
{
    teardown_();
    const auto t0 = Clock::now();
    setup_();
    seconds_.push_back(secondsBetween(t0, Clock::now()));
}

void
SetupTimer::start()
{
    while (seconds_.size() < upFront)
        sample();
}

double
SetupTimer::catchUp(double fraction)
{
    const auto t0 = Clock::now();
    const auto due = upFront +
        static_cast<unsigned>(std::min(1.0, fraction) * (total - upFront));
    while (seconds_.size() < due)
        sample();
    return secondsBetween(t0, Clock::now());
}

double
SetupTimer::finish()
{
    catchUp(1.0);
    return percentile(seconds_, 0.5);
}

Tracer::Scope::Scope(Tracer &t, const char *layer) : t_(t)
{
    if (!t_.enabled_)
        return;
    index_ = static_cast<std::int64_t>(t_.spans_.size());
    t_.spans_.push_back({layer, Clock::now(), {}, t_.open_});
    t_.open_ = index_;
}

Tracer::Scope::~Scope()
{
    if (index_ < 0)
        return;
    auto &s = t_.spans_[static_cast<std::size_t>(index_)];
    s.end = Clock::now();
    t_.open_ = s.parent;
}

std::map<std::string, Tracer::Layer>
Tracer::layers() const
{
    std::vector<double> children(spans_.size(), 0.0);
    for (const auto &s : spans_)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)] +=
                secondsBetween(s.start, s.end);
    std::map<std::string, Layer> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &l = out[spans_[i].layer];
        l.selfSeconds +=
            secondsBetween(spans_[i].start, spans_[i].end) - children[i];
        ++l.calls;
    }
    return out;
}

workload::PreparedPtr
ReplayPrep::get(Tracer &tr, const workload::Workload &w,
                const reorg::ReorgConfig &rc, std::size_t program)
{
    if (seen_.insert(std::to_string(program) + '|' +
                     workload::reorgFingerprint(rc))
            .second) {
        const auto prog = tr.span("assembler", [&] {
            return assembler::assemble(w.source, w.name + ".s");
        });
        reorg::ReorgStats stats;
        const auto image = tr.span("reorg", [&] {
            return reorg::reorganize(prog, rc, &stats);
        });
        const auto decoded = tr.span("memory.predecode", [&] {
            return memory::DecodedImage::snapshotProgram(image);
        });
        (void)decoded;
    }
    auto &cache = workload::PreparedCache::global();
    const auto before = cache.stats().misses;
    auto prep = tr.span("workload", [&] { return cache.get(w, rc, false); });
    if (cache.stats().misses != before)
        ++divergences;
    return prep;
}

void
Report::check(bool ok, const std::string &what)
{
    checkMany(1, ok ? 0 : 1, what);
}

void
Report::checkMany(std::uint64_t n, std::uint64_t bad,
                  const std::string &what)
{
    attempted_ += n;
    failed_ += bad;
    if (bad)
        std::fprintf(stderr, "perfbench: check failed (%llu of %llu): %s\n",
                     static_cast<unsigned long long>(bad),
                     static_cast<unsigned long long>(n), what.c_str());
}

void
Report::set(const std::string &name, double value)
{
    if (!std::isfinite(value)) {
        check(false, "non-finite metric " + name);
        value = 0;
    }
    values_[name] = value;
}

void
Report::print(bool trace) const
{
    for (const auto &n : notes_)
        std::printf("# %s\n", n.c_str());
    const auto emit = [&](const MetricSpec *begin, const MetricSpec *end) {
        std::string json;
        for (const auto *m = begin; m != end; ++m) {
            const auto it = values_.find(m->name);
            const double v = it == values_.end() ? 0.0 : it->second;
            std::printf("%-42s %18.6f %s\n", m->name, v, m->unit);
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          json.empty() ? "" : ", ", m->name, v, m->unit);
            json += buf;
        }
        return json;
    };
    const std::string metrics = trace
        ? emit(std::begin(perLayer), std::end(perLayer))
        : emit(std::begin(endToEnd), std::end(endToEnd));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), metrics.c_str());
}

void
setLayerMetrics(Report &rep, const Tracer &traced,
                const ReplayTiming &walls, const ReplayPrep &prep,
                std::uint64_t machineInstructions,
                const workload::PreparedCacheStats &cache)
{
    const auto layers = traced.layers();
    const auto self = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second.selfSeconds;
    };
    rep.set("assembler.self_s", self("assembler"));
    rep.set("reorg.self_s", self("reorg"));
    rep.set("memory.predecode_s", self("memory.predecode"));
    rep.set("workload.self_s", self("workload"));
    rep.set("machine.self_s", self("machine"));
    rep.set("interval.self_s", self("interval"));
    rep.set("serve.parse_s", self("serve.parse"));
    rep.set("serve.format_s", self("serve.format"));
    rep.set("explore.self_s", self("explore"));
    rep.set("explore.emit_s", self("explore.emit"));
    rep.set("trace.collect_s", self("trace"));
    if (machineInstructions)
        rep.set("machine.ns_per_instr",
                self("machine") * 1e9 / double(machineInstructions));

    rep.set("workload.prepared_hits", double(cache.hits));
    rep.set("workload.prepared_misses", double(cache.misses));
    const auto uses = cache.hits + cache.misses;
    rep.set("workload.prepared_hit_ratio",
            uses ? double(cache.hits) / double(uses) : 0.0);
    rep.check(prep.divergences == 0,
              "replay prepared images diverged from the measured path");

    double total = 0;
    for (const auto &[name, l] : layers)
        total += l.selfSeconds;
    rep.set("tracing.overhead_pct",
            (walls.traced - walls.untraced) / walls.untraced * 100.0);
    rep.set("tracing.span_coverage_pct", total / walls.untraced * 100.0);
    rep.set("tracing.gap_s", walls.untraced - total);
    for (const auto &[name, l] : layers)
        rep.note(mipsx::strformat("span %-18s %8llu calls %12.6f s self",
                                  name.c_str(),
                                  static_cast<unsigned long long>(l.calls),
                                  l.selfSeconds));
    rep.note(mipsx::strformat("replay wall %.6f s traced, %.6f s untraced",
                              walls.traced, walls.untraced));
}

void
setMachineRatios(Report &rep, const sim::MachineCounters &c)
{
    rep.set("core.cpi",
            double(c.pipeline.cycles) / double(c.pipeline.committed));
    rep.set("memory.icache_miss_ratio",
            double(c.icacheMisses) / double(c.icacheAccesses));
    rep.set("memory.ecache_miss_ratio",
            double(c.ecacheMisses) / double(c.ecacheAccesses));
}

void
checkSeeds(Report &rep, const std::vector<std::uint64_t> &prints,
           std::uint64_t next)
{
    rep.check(std::all_of(prints.begin(), prints.end(),
                          [&](auto p) { return p == prints[0]; }),
              "the same seed generated different inputs");
    rep.check(next != prints[0],
              "a different seed generated the same programs");
}

} // namespace perfbench
