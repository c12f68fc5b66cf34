/**
 * @file
 * Campaign benchmark: shared declarations.
 *
 * The benchmark links the amulet library and times it from outside.
 * A timed run (timed.cc) runs `campaign_cli run`-equivalent campaigns at
 * --jobs min(nproc, 4) with every runtime knob at its default; a traced
 * run (traced.cc) drives the same seeded workload sequentially through
 * the layers' public entry points and records a span around each call.
 * Both check every program's verdict against an untraced reference
 * (check.cc): the same config at --jobs 1, in-process, without a
 * corpus.
 */

#ifndef CAMPBENCH_BENCH_HH
#define CAMPBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "pipeline/stage.hh"

namespace campbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One named workload: a campaign cell chosen to load one layer. */
struct Workload
{
    const char *name;
    const char *why;
    amulet::defense::DefenseKind defense;
    const char *contract;
    unsigned pages;
    amulet::executor::BackendKind backend;
    bool corpus;       ///< journal to --corpus-dir (checkpoint-every 8)
    unsigned programs; ///< campaign size
};

const std::vector<Workload> &workloads();
const Workload *findWorkload(const std::string &name);

/**
 * The workload's campaign config exactly as `campaign_cli run` builds
 * it from its defaults plus the workload's flags. Records are not
 * capped (maxViolationsRecorded), so every program's verdict can be
 * checked; @p corpusDir empty means no corpus.
 */
amulet::core::CampaignConfig makeConfig(const Workload &w,
                                        std::uint64_t seed, unsigned jobs,
                                        amulet::executor::BackendKind backend,
                                        const std::string &corpusDir);

/** The seven pipeline stages in the order one shard runs them
 *  (runtime/shard_executor.cc). */
std::vector<std::unique_ptr<amulet::pipeline::Stage>> pipelineStages();

/** Per-program verdict digests, indexed by program (0: no records). */
using Digests = std::vector<std::uint64_t>;

/** FNV-1a, 64 bit. */
std::uint64_t fnv1a(const std::string &text, std::uint64_t h = 0);

/** Canonical record text without wall-clock fields (detectSeconds). */
std::string canonicalRecord(const amulet::core::ViolationRecord &rec);

/** Digest every program's records, in detection order. */
Digests digestRecords(const std::vector<amulet::core::ViolationRecord> &recs,
                      unsigned numPrograms);

/** Counter invariants every finished campaign must satisfy; returns an
 *  empty string when consistent, else what is wrong. */
std::string checkCounters(const amulet::core::CampaignStats &stats,
                          unsigned numPrograms);

/** The untraced reference: --jobs 1, in-process, no corpus. */
struct Reference
{
    amulet::core::CampaignStats stats;
    Digests digests;
    double wallSec = 0;
    /** Programs with at least one record that failed replay. */
    std::vector<bool> replayFailed;
    unsigned replayedRecords = 0;
    unsigned replayFailures = 0;
    std::vector<double> replayUs; ///< per record
    /** Guard-page contents survive from one program to the next on an
     *  executor (the guard-page leak). When false no program's verdict
     *  can depend on the schedule through it, and the guard-read pass
     *  is skipped. */
    bool guardCarries = false;
    /** Programs with a load that reads guard-page bytes: their verdict
     *  may depend on what earlier programs on the executor left there,
     *  so on the schedule. Empty of true values when !guardCarries. */
    std::vector<bool> readsGuard;
    unsigned guardReaders = 0;
    double guardPassSec = 0; ///< the guard-read pass, 0 when skipped
};

/** Run the reference campaign, replay every confirmed violation with
 *  corpus::replayViolation on one harness (as `campaign_cli replay`),
 *  and, when guard-page contents carry between programs, find the
 *  programs that read the guard page with a traced sequential pass
 *  whose verdicts must equal the reference's. */
Reference runReference(const Workload &w, std::uint64_t seed);

/** One report line on @p ref, the reference of campaign seed @p seed. */
void printReference(std::uint64_t seed, const Reference &ref);

/** Print the reference's deterministic simulated statistics: they
 *  repeat exactly for a fixed seed, so a speed-only change must leave
 *  them identical. */
void printDeterministic(const Reference &ref);

/** Fail/attempt tally of the checked programs of one seed. */
struct Verdict
{
    unsigned attempted = 0; ///< programs (each counted once)
    unsigned failed = 0;
    unsigned digestMismatches = 0; ///< programs differing in some run
    /** Mismatching programs that do not read the guard page: the leak
     *  does not explain them. */
    unsigned unexplained = 0;
    unsigned guardReaders = 0;
    unsigned quarantined = 0;
    unsigned replayFailed = 0;
};

/**
 * Judge @p runs, campaigns of one seed, against its reference program
 * by program. A program fails when it reads the guard page (while its
 * contents carry between programs), when one of the reference's
 * violations of it failed replay, or when its digest differs from the
 * reference's in any run. Quarantines are only
 * counted (the library does not say which programs); the largest count
 * of any run is added, so it may overlap the other failures.
 */
Verdict judge(const std::vector<const Digests *> &runs,
              unsigned quarantined, const Reference &ref);

/** @name Small statistics helpers */
/// @{
double median(std::vector<double> v);
/** Nearest-rank percentile, @p q in [0, 1]. */
double percentile(std::vector<double> v, double q);
/// @}

/** A JSON number with all its digits (0 for non-finite values). */
std::string jsonNumber(double v);

/** One reported metric value. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Print the result object as the last stdout line. */
void printResult(bool correct, unsigned attempted, unsigned failed,
                 const std::vector<Metric> &metrics);

/** Peak resident set of this process (MiB) since the last successful
 *  resetPeakRss(), or since it started. */
double peakRssMb();
/** Reset the kernel's peak-RSS mark; false when unsupported. */
bool resetPeakRss();

/** Common run options. */
struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    unsigned jobs = 4; ///< min(nproc, 4), as the timed campaigns run
    std::string outDir = ".bench_out";
};

/** Timed run (end-to-end metrics). Returns the process exit code. */
int runTimed(const Options &opt);

/** Traced run (per-layer metrics). Returns the process exit code. */
int runTraced(const Options &opt);

} // namespace campbench

#endif // CAMPBENCH_BENCH_HH
