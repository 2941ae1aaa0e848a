/**
 * @file
 * perfbench — one benchmark for the three paths users drive.
 *
 *     perfbench --workload sweep|interval|serve --seed N --seconds S
 *               --trace 0|1
 *
 * Every input is generated from --seed. The untraced run (--trace 0)
 * measures the workload's end-to-end metrics for about S seconds; the
 * traced run (--trace 1) replays the workload through each layer's
 * public entry point under spans and reports the per-layer metrics.
 * Both check every output they produce. The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hh"

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload sweep|interval|serve "
                 "--seed N --seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *s, const char *flag)
{
    char *end = nullptr;
    if (*s < '0' || *s > '9')
        usage(flag);
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (*end != '\0')
        usage(flag);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage("missing flag value");
        const char *value = argv[++i];
        if (!std::strcmp(flag, "--workload")) {
            opt.workload = value;
        } else if (!std::strcmp(flag, "--seed")) {
            opt.seed = parseUnsigned(value, "bad --seed");
            haveSeed = true;
        } else if (!std::strcmp(flag, "--seconds")) {
            const auto s = parseUnsigned(value, "bad --seconds");
            if (s < 1 || s > 600)
                usage("--seconds must be 1..600");
            opt.seconds = double(s);
        } else if (!std::strcmp(flag, "--trace")) {
            const auto t = parseUnsigned(value, "bad --trace");
            if (t > 1)
                usage("--trace must be 0 or 1");
            opt.trace = t == 1;
        } else {
            usage("unknown flag");
        }
    }
    if (!haveSeed)
        usage("--seed is required");

    perfbench::Report rep;
    try {
        if (opt.workload == "sweep")
            perfbench::runSweepWorkload(opt, rep);
        else if (opt.workload == "interval")
            perfbench::runIntervalWorkload(opt, rep);
        else if (opt.workload == "serve")
            perfbench::runServeWorkload(opt, rep);
        else
            usage("unknown --workload");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    rep.print(opt.trace);
    return 0;
}
