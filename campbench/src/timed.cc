/**
 * @file
 * Timed run: end-to-end metrics of real campaigns, tracing off.
 *
 * The run runs the campaigns of kSeedsPerRun seeds back to back until
 * each has run and --seconds have passed, measuring set-up (every
 * shard's backend built, booted and primed, in parallel, as the
 * scheduler's shards do) before each, then computes each seed's untimed
 * jobs=1 reference and checks every campaign against it program by
 * program.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hh"
#include "executor/backend.hh"
#include "isa/assembler.hh"

namespace campbench
{

using namespace amulet;

namespace
{

/** Distinct campaigns per run, and the distance between their seeds. */
constexpr unsigned kSeedsPerRun = 8;
constexpr std::uint64_t kSeedStride = 1000003;

/**
 * Wall time until @p jobs backends are built, booted (saveContext) and
 * primed (the first input of a one-load program), concurrently. For the
 * subprocess backend building one spawns its worker and completes the
 * hello. Backends are torn down after the clock stops.
 */
double
measureSetupOnce(const core::CampaignConfig &cfg, unsigned jobs)
{
    const isa::Program prog = isa::assemble("MOV RAX, qword ptr [R14 + 0]");
    const isa::FlatProgram flat(prog, cfg.harness.map.codeBase);
    arch::Input input;
    input.sandbox.assign(std::size_t{cfg.harness.map.sandboxPages} * 4096,
                         0);

    std::vector<std::unique_ptr<executor::SimBackend>> backends(jobs);
    std::exception_ptr failure;
    std::mutex failure_mu;
    const auto t0 = Clock::now();
    {
        std::vector<std::thread> threads;
        for (unsigned s = 0; s < jobs; ++s) {
            threads.emplace_back([&, s] {
                try {
                    auto b = executor::makeBackend(cfg.backend,
                                                   cfg.harness);
                    b->saveContext();
                    b->loadProgram(prog, flat);
                    b->runOne(input, nullptr);
                    backends[s] = std::move(b);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(failure_mu);
                    if (!failure)
                        failure = std::current_exception();
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    const double sec = since(t0);
    if (failure)
        std::rethrow_exception(failure);
    return sec;
}

struct Rep
{
    unsigned seedIndex = 0;
    double wallSec = 0;
    double peakRssMb = 0;
    core::CampaignStats stats;
    Digests digests;
    std::string consistency; ///< empty: counters consistent
};

/** Run the references of @p seeds, @p threads at a time (each
 *  reference is a sequential jobs=1 campaign by definition). */
std::vector<Reference>
parallelReferences(const Workload &w, const std::vector<std::uint64_t> &seeds,
                   unsigned threads)
{
    std::vector<Reference> refs(seeds.size());
    std::vector<std::exception_ptr> failures(seeds.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::min<std::size_t>(threads, seeds.size());
         ++t) {
        pool.emplace_back([&] {
            for (std::size_t k; (k = next.fetch_add(1)) < seeds.size();) {
                try {
                    refs[k] = runReference(w, seeds[k]);
                } catch (...) {
                    failures[k] = std::current_exception();
                }
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    for (const std::exception_ptr &f : failures)
        if (f)
            std::rethrow_exception(f);
    return refs;
}

} // namespace

int
runTimed(const Options &opt)
{
    const Workload &w = *opt.workload;
    namespace fs = std::filesystem;
    const std::string corpusDir =
        w.corpus ? opt.outDir + "/corpus-" + w.name : std::string();
    // A run covers kSeedsPerRun distinct campaigns, so a metric that
    // depends on which programs a seed draws (violations found above
    // all) averages over that many times the programs; the first is the
    // campaign of --seed itself.
    std::vector<std::uint64_t> seeds;
    std::vector<core::CampaignConfig> cfgs;
    for (unsigned k = 0; k < kSeedsPerRun; ++k) {
        seeds.push_back(opt.seed + k * kSeedStride);
        cfgs.push_back(
            makeConfig(w, seeds.back(), opt.jobs, w.backend, corpusDir));
    }

    // --- timed campaigns -----------------------------------------------
    // Every seed runs at least once; then the seeds cycle until the
    // measuring time is spent. Set-up is sampled before every campaign,
    // so its median covers the whole run rather than one moment of it.
    constexpr unsigned kSetupsPerCampaign = 3;
    std::vector<double> setups;
    std::vector<Rep> reps;
    bool perCampaignRss = true;
    const auto run0 = Clock::now();
    while (reps.size() < kSeedsPerRun || since(run0) < opt.seconds) {
        if (!corpusDir.empty())
            fs::remove_all(corpusDir); // a fresh corpus per campaign
        for (unsigned i = 0; i < kSetupsPerCampaign; ++i)
            setups.push_back(measureSetupOnce(cfgs[0], opt.jobs));
        Rep rep;
        rep.seedIndex = static_cast<unsigned>(reps.size() % kSeedsPerRun);
        perCampaignRss = resetPeakRss() && perCampaignRss;
        const auto t0 = Clock::now();
        rep.stats = core::Campaign(cfgs[rep.seedIndex]).run();
        rep.wallSec = since(t0);
        rep.peakRssMb = peakRssMb();
        // Digest now, so the next campaign starts with this one's
        // records freed (peak RSS then reflects one campaign).
        rep.consistency = checkCounters(rep.stats, w.programs);
        rep.digests = digestRecords(rep.stats.records, w.programs);
        rep.stats.records = {};
        reps.push_back(std::move(rep));
    }
    // Peak RSS of one campaign, median over campaigns; where the kernel
    // cannot reset its mark, the peak of the whole run.
    std::vector<double> rss;
    for (const Rep &rep : reps)
        rss.push_back(rep.peakRssMb);
    const double peakRss = perCampaignRss ? median(rss) : peakRssMb();
    if (!corpusDir.empty())
        fs::remove_all(corpusDir);

    const double setupSec = median(setups);
    std::printf("setup: %zu set-ups of %u shard(s), median %.6f s "
                "(min %.6f, max %.6f)\n",
                setups.size(), opt.jobs, setupSec,
                *std::min_element(setups.begin(), setups.end()),
                *std::max_element(setups.begin(), setups.end()));

    // --- check ---------------------------------------------------------
    bool correct = true;
    for (const Rep &rep : reps) {
        if (!rep.consistency.empty()) {
            std::printf("INCONSISTENT counters: %s\n",
                        rep.consistency.c_str());
            correct = false;
        }
    }
    const std::vector<Reference> refs =
        parallelReferences(w, seeds, opt.jobs);
    for (std::size_t k = 0; k < refs.size(); ++k)
        printReference(seeds[k], refs[k]);

    std::vector<double> testsPerSec, walls;
    std::vector<double> confirmedBySeed(kSeedsPerRun, 0);
    std::vector<std::vector<const Digests *>> runsBySeed(kSeedsPerRun);
    std::vector<unsigned> quarantinedBySeed(kSeedsPerRun, 0);
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &rep = reps[i];
        const Reference &ref = refs[rep.seedIndex];
        const Verdict v =
            judge({&rep.digests}, rep.stats.quarantinedPrograms, ref);
        runsBySeed[rep.seedIndex].push_back(&rep.digests);
        quarantinedBySeed[rep.seedIndex] =
            std::max(quarantinedBySeed[rep.seedIndex],
                     rep.stats.quarantinedPrograms);
        const double tps =
            static_cast<double>(rep.stats.testCases) /
            std::max(1e-9, rep.wallSec - setupSec);
        testsPerSec.push_back(tps);
        walls.push_back(rep.wallSec);
        if (i < kSeedsPerRun)
            confirmedBySeed[rep.seedIndex] =
                static_cast<double>(rep.stats.confirmedViolations);
        std::printf("campaign %zu (seed %llu): wall %.4f s, %llu tests, "
                    "%llu confirmed, %.1f tests/s; digest differs on %u "
                    "programs (%u of them do not read the guard page), "
                    "quarantined %u\n",
                    i + 1,
                    static_cast<unsigned long long>(seeds[rep.seedIndex]),
                    rep.wallSec,
                    static_cast<unsigned long long>(rep.stats.testCases),
                    static_cast<unsigned long long>(
                        rep.stats.confirmedViolations),
                    tps, v.digestMismatches, v.unexplained, v.quarantined);
        if (rep.stats.confirmedViolations == 0) {
            std::printf("INCORRECT: campaign %zu confirmed no "
                        "violation\n", i + 1);
            correct = false;
        }
    }
    // Each program of each seed is one operation: it fails if it fails
    // in any of the run's campaigns of that seed.
    unsigned attempted = 0;
    unsigned failed = 0;
    for (unsigned k = 0; k < kSeedsPerRun; ++k) {
        const Verdict v =
            judge(runsBySeed[k], quarantinedBySeed[k], refs[k]);
        attempted += v.attempted;
        failed += v.failed;
        std::printf("seed %llu over %zu campaign(s): failed %u of %u "
                    "programs (read the guard page %u, replay %u, digest "
                    "differs without a guard read %u, quarantined "
                    "%u)\n",
                    static_cast<unsigned long long>(seeds[k]),
                    runsBySeed[k].size(), v.failed, v.attempted,
                    v.guardReaders, v.replayFailed, v.unexplained,
                    v.quarantined);
    }
    // Every campaign has the same number of programs, so the median wall
    // over the mean violations of the seeds is seconds per violation.
    double meanConfirmed = 0;
    for (double c : confirmedBySeed)
        meanConfirmed += c / kSeedsPerRun;
    const double secPerViolation =
        median(walls) / std::max(1.0, meanConfirmed);

    // failed_share is what the leak costs today; once it is fixed it
    // reads 0, so the result line carries its complement, which never
    // does.
    const double share =
        static_cast<double>(failed) / std::max(1u, attempted);
    const std::vector<Metric> metrics = {
        {"tests_per_s", median(testsPerSec), "tests/s"},
        {"s_per_violation", secPerViolation, "s"},
        {"setup_s", setupSec, "s"},
        {"peak_rss_mb", peakRss, "MiB"},
        {"verified_share", 1.0 - share, "ratio"},
    };
    std::printf("\nend-to-end, %zu campaigns over %u seeds:\n", reps.size(),
                kSeedsPerRun);
    for (const Metric &m : metrics)
        std::printf("  %-16s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-16s %16.6f ratio (= 1 - verified_share)\n",
                "failed_share", share);
    printDeterministic(refs.front());
    std::printf("correctness: %s; %u of %u programs failed the "
                "per-program check (guard-page leak, see "
                "campbench/README.md)\n",
                correct ? "counters consistent" : "FAILED", failed,
                attempted);
    printResult(correct, attempted, failed, metrics);
    return 0;
}

} // namespace campbench
