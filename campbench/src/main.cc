/**
 * @file
 * Campaign benchmark driver.
 *
 *   campbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--source-id TEXT]
 *
 * Prints a human-readable report, then one JSON result object as the
 * last line of standard output. campbench/run.py builds this binary and
 * runs it; see campbench/README.md.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"

#ifndef CAMPBENCH_BUILD_TYPE
#define CAMPBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define CAMPBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define CAMPBENCH_COMPILER "gcc " __VERSION__
#else
#define CAMPBENCH_COMPILER "unknown"
#endif

namespace
{

using namespace campbench;

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "campbench: %s\nusage: campbench --workload NAME "
                         "[--seed N] [--seconds S] [--trace 0|1] "
                         "[--source-id TEXT]\nworkloads:",
                 msg);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

std::uint64_t
parseU64(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || std::strchr(text, '-'))
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** A fixed integer loop: its time lets runs on different hosts be
 *  compared. Median of five. */
double
calibrationMs()
{
    std::vector<double> times;
    volatile std::uint64_t sink = 0;
    for (int r = 0; r < 5; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        std::uint64_t acc = 0;
        for (std::uint32_t i = 0; i < (1u << 24); ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += x * 0x2545f4914f6cdd1dULL;
        }
        sink = sink + acc;
        times.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
    }
    return median(times);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    int trace = 0;
    std::string sourceId = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        if (arg == "--workload") {
            opt.workload = findWorkload(val);
            if (!opt.workload)
                usage((std::string("unknown workload ") + val).c_str());
        } else if (arg == "--seed") {
            opt.seed = parseU64("--seed", val);
        } else if (arg == "--seconds") {
            opt.seconds = static_cast<double>(parseU64("--seconds", val));
        } else if (arg == "--trace") {
            trace = static_cast<int>(parseU64("--trace", val));
            if (trace > 1)
                usage("--trace takes 0 or 1");
        } else if (arg == "--source-id") {
            sourceId = val;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (!opt.workload)
        usage("--workload is required");
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    opt.jobs = std::min(nproc, 4u);
    if (opt.seconds <= 0)
        usage("--seconds must be positive");

    const Workload &w = *opt.workload;
    std::printf("campbench: workload=%s seed=%llu seconds=%g trace=%d "
                "jobs=%u\n",
                w.name, static_cast<unsigned long long>(opt.seed),
                opt.seconds, trace, opt.jobs);
    std::printf("why: %s\n", w.why);
    std::printf("config: defense=%s contract=%s pages=%u backend=%s "
                "programs=%u inputs=6x5 corpus=%s\n",
                amulet::defense::defenseKindName(w.defense), w.contract,
                w.pages, amulet::executor::backendKindName(w.backend),
                w.programs, w.corpus ? "yes (checkpoint-every 8)" : "no");
    std::printf("host: cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s "
                "source=%s calibration_ms=%.3f\n",
                cpuModel().c_str(), nproc, CAMPBENCH_COMPILER,
                CAMPBENCH_BUILD_TYPE, sourceId.c_str(), calibrationMs());
    std::fflush(stdout);

    try {
        return trace ? runTraced(opt) : runTimed(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campbench: aborted: %s\n", e.what());
        return 1;
    }
}
