/**
 * @file
 * nbl_perfbench: one run of one benchmark workload.
 *
 *   nbl_perfbench --workload paper_sweep|org_sweep|service_mixed
 *                 --seed N --seconds S --trace 0|1
 *                 [--scale X]
 *                 [--reference-dir DIR] [--work-dir DIR]
 *   nbl_perfbench --write-reference --scale X [--reference-dir DIR]
 *
 * Prints a host/build stamp line, human-readable report lines, and as
 * its last line one JSON object {correct, attempted, failed, metrics}:
 * the end-to-end metrics with --trace 0, the per-layer metrics of the
 * traced run with --trace 1. Exits 1 when any answer was wrong or
 * refused, 2 on a usage error or a refused build.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "stats/json.hh"
#include "util/log.hh"
#include "util/parse.hh"
#include "workload.hh"

using namespace perfbench;

namespace
{

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMacro = true;
#else
constexpr bool kSanitizerMacro = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/** Why this build must not produce numbers ("" when it may). */
std::string
refusedBuild()
{
    std::string flags = PERFBENCH_FLAGS;
    if (kSanitizerMacro || flags.find("-fsanitize") != std::string::npos)
        return "sanitizer-instrumented build";
    if (!kOptimized || flags.find("-O0") != std::string::npos)
        return "build without optimization";
    return "";
}

std::string
stampJson(const Options &opt)
{
    using nbl::stats::jsonQuote;
    long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    bool service = opt.workload == "service_mixed";
    return nbl::strfmt(
        "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
        "\"scale\": %s, \"nproc\": %ld, \"hardware_concurrency\": %u, "
        "\"workers\": %u, \"connections\": %u, \"compiler\": %s, "
        "\"build_type\": %s, \"flags\": %s, \"source_rev\": %s}",
        jsonQuote(opt.workload).c_str(), (unsigned long long)opt.seed,
        nbl::stats::jsonDouble(opt.seconds).c_str(), int(opt.trace),
        nbl::stats::jsonDouble(opt.scale).c_str(), nproc,
        std::thread::hardware_concurrency(), service ? 0 : kWorkers,
        service ? kWorkers : 0, jsonQuote(PERFBENCH_COMPILER).c_str(),
        jsonQuote(PERFBENCH_BUILD_TYPE).c_str(),
        jsonQuote(PERFBENCH_FLAGS).c_str(),
        jsonQuote(PERFBENCH_SOURCE_REV).c_str());
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "nbl_perfbench: %s\nusage: nbl_perfbench --workload "
                 "paper_sweep|org_sweep|service_mixed --seed N --seconds S "
                 "--trace 0|1 [--scale X] [--reference-dir D] [--work-dir D]"
                 "\n       nbl_perfbench --write-reference "
                 "[--scale X] [--reference-dir D]\n",
                 msg);
    std::exit(2);
}

uint64_t
parseU64(const char *flag, const std::string &v)
{
    uint64_t out = 0;
    if (!nbl::parseUint64(v, &out))
        usage(nbl::strfmt("%s: not a whole number: '%s'", flag, v.c_str())
                  .c_str());
    return out;
}

double
parsePositive(const char *flag, const std::string &v)
{
    double out = 0;
    if (!nbl::parseDouble(v, &out) || !(out > 0))
        usage(nbl::strfmt("%s: not a positive number: '%s'", flag,
                          v.c_str())
                  .c_str());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.referenceDir = "perfbench/reference";
    opt.workDir = ".bench_build/work";
    bool writeReference = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--write-reference") {
            writeReference = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = parseU64("--seed", v);
        else if (a == "--seconds")
            opt.seconds = parsePositive("--seconds", v);
        else if (a == "--trace" && (v == "0" || v == "1"))
            opt.trace = v == "1";
        else if (a == "--scale")
            opt.scale = parsePositive("--scale", v);
        else if (a == "--reference-dir")
            opt.referenceDir = v;
        else if (a == "--work-dir")
            opt.workDir = v;
        else
            usage(("bad argument " + a + " " + v).c_str());
    }
    std::string refused = refusedBuild();
    if (!refused.empty()) {
        std::fprintf(stderr,
                     "nbl_perfbench: refusing to measure a %s (flags '%s')\n",
                     refused.c_str(), PERFBENCH_FLAGS);
        return 2;
    }

    if (writeReference) {
        Reference ref;
        buildReference(opt, ref);
        std::string err;
        if (!ref.save(opt.referenceDir, opt.scale, &err)) {
            std::fprintf(stderr, "nbl_perfbench: %s\n", err.c_str());
            return 2;
        }
        std::printf("wrote %zu digests at scale %g to %s\n", ref.size(),
                    opt.scale, opt.referenceDir.c_str());
        return 0;
    }

    Outcome (*run)(const Options &, const Reference &) = nullptr;
    if (opt.workload == "paper_sweep")
        run = runPaperSweep;
    else if (opt.workload == "org_sweep")
        run = runOrgSweep;
    else if (opt.workload == "service_mixed")
        run = runServiceMixed;
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());

    Reference ref;
    std::string err;
    if (!ref.load(opt.referenceDir, opt.scale, &err)) {
        std::fprintf(stderr, "nbl_perfbench: %s\n", err.c_str());
        return 2;
    }
    std::filesystem::create_directories(opt.workDir);
    opt.stampJson = stampJson(opt);
    std::printf("# stamp %s\n", opt.stampJson.c_str());

    Outcome out = run(opt, ref);
    for (const std::string &line : out.report)
        std::printf("%s\n", line.c_str());
    std::string metrics;
    for (const Metric &m : out.metrics) {
        std::printf("# %-28s %18.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        metrics += nbl::strfmt("%s\"%s\": {\"value\": %s, \"unit\": %s}",
                               metrics.empty() ? "" : ", ", m.name.c_str(),
                               nbl::stats::jsonDouble(m.value).c_str(),
                               nbl::stats::jsonQuote(m.unit).c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.failed == 0 ? "true" : "false",
                (unsigned long long)out.attempted,
                (unsigned long long)out.failed, metrics.c_str());
    std::fflush(stdout);
    return out.failed == 0 ? 0 : 1;
}
