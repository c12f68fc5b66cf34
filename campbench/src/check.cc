/**
 * @file
 * Workload table, verdict digests, the jobs=1 reference, and the shared
 * output helpers.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "bench.hh"
#include "common/rng.hh"
#include "contracts/contract.hh"
#include "corpus/replayer.hh"
#include "corpus/serde.hh"
#include "executor/backend.hh"
#include "isa/assembler.hh"
#include "pipeline/stages.hh"
#include "runtime/violation_sink.hh"
#include "telemetry/uarch_trace.hh"

namespace campbench
{

using namespace amulet;

const std::vector<Workload> &
workloads()
{
    // Each workload loads a different layer; see README.md for why.
    static const std::vector<Workload> table = {
        {"invisispec-ctseq",
         "simulator cell: simulation dominates, ~2/3 of programs confirm, "
         "so analyze, validate and record are timed",
         defense::DefenseKind::InvisiSpec, "CT-SEQ", 1,
         executor::BackendKind::InProcess, false, 3000},
        {"stt-archseq-128p",
         "emulator, contract-trace and input-generation cell: 512 KB "
         "sandboxes with a small simulator share",
         defense::DefenseKind::Stt, "ARCH-SEQ", 128,
         executor::BackendKind::InProcess, false, 1500},
        {"cleanupspec-subprocess",
         "wire and serde cell: every batch crosses a pipe to a worker "
         "process as JSON",
         defense::DefenseKind::CleanupSpec, "CT-SEQ", 1,
         executor::BackendKind::Subprocess, false, 1000},
        {"speclfb-journal",
         "persistence cell: every confirmed violation is journaled and "
         "checkpoints rewrite all outcomes under one mutex",
         defense::DefenseKind::SpecLfb, "CT-SEQ", 1,
         executor::BackendKind::InProcess, true, 500},
    };
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

core::CampaignConfig
makeConfig(const Workload &w, std::uint64_t seed, unsigned jobs,
           executor::BackendKind backend, const std::string &corpusDir)
{
    // campaign_cli's defaults (examples/campaign_cli.cpp main()).
    core::CampaignConfig cfg;
    cfg.numPrograms = w.programs;
    cfg.baseInputsPerProgram = 6;
    cfg.siblingsPerBase = 4;
    const auto contract = contracts::findContract(w.contract);
    if (!contract)
        throw std::runtime_error(std::string("unknown contract ") +
                                 w.contract);
    cfg.contract = *contract;
    cfg.harness.map.sandboxPages = w.pages;
    cfg.harness.defense = defense::DefenseConfig{};
    cfg.harness.defense.kind = w.defense;
    if (w.defense == defense::DefenseKind::CleanupSpec ||
        w.defense == defense::DefenseKind::SpecLfb)
        cfg.harness.prime = executor::PrimeMode::Invalidate;
    cfg.gen.map = cfg.harness.map;
    cfg.inputs.map = cfg.harness.map;
    cfg.seed = seed;
    cfg.jobs = jobs;
    cfg.backend = backend;
    cfg.corpusDir = corpusDir;
    // campaign_cli keeps only the first 32 records; the per-program
    // check needs them all.
    cfg.maxViolationsRecorded = std::numeric_limits<unsigned>::max();
    return cfg;
}

std::uint64_t
fnv1a(const std::string &text, std::uint64_t h)
{
    if (h == 0)
        h = 1469598103934665603ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
canonicalRecord(const core::ViolationRecord &rec)
{
    corpus::Json j = corpus::toJson(rec);
    j.set("detectSeconds", corpus::Json::number(std::uint64_t{0}));
    return j.dump();
}

Digests
digestRecords(const std::vector<core::ViolationRecord> &recs,
              unsigned numPrograms)
{
    Digests d(numPrograms, 0);
    for (const core::ViolationRecord &rec : recs) {
        if (rec.programIndex >= numPrograms)
            throw std::runtime_error("record names program " +
                                     std::to_string(rec.programIndex) +
                                     " outside the campaign");
        d[rec.programIndex] = fnv1a(canonicalRecord(rec),
                                    d[rec.programIndex]);
    }
    return d;
}

std::string
checkCounters(const core::CampaignStats &s, unsigned numPrograms)
{
    std::uint64_t signatures = 0;
    for (const auto &[name, count] : s.signatureCounts)
        signatures += count;
    if (s.records.size() != s.confirmedViolations)
        return "records " + std::to_string(s.records.size()) +
               " != confirmed " + std::to_string(s.confirmedViolations);
    if (signatures != s.confirmedViolations)
        return "signature counts " + std::to_string(signatures) +
               " != confirmed " + std::to_string(s.confirmedViolations);
    if (s.programs + s.quarantinedPrograms > numPrograms ||
        s.programs + s.skippedPrograms + s.quarantinedPrograms <
            numPrograms)
        return "program counts do not add up to " +
               std::to_string(numPrograms);
    if (s.candidateViolations < s.confirmedViolations ||
        s.filteredTestCases > s.testCases)
        return "candidate or filter counts out of range";
    return {};
}

std::vector<std::unique_ptr<pipeline::Stage>>
pipelineStages()
{
    std::vector<std::unique_ptr<pipeline::Stage>> stages;
    stages.push_back(std::make_unique<pipeline::TestGenStage>());
    stages.push_back(std::make_unique<pipeline::CTraceStage>());
    stages.push_back(std::make_unique<pipeline::FilterStage>());
    stages.push_back(std::make_unique<pipeline::ExecuteStage>());
    stages.push_back(std::make_unique<pipeline::AnalyzeStage>());
    stages.push_back(std::make_unique<pipeline::ValidateStage>());
    stages.push_back(std::make_unique<pipeline::RecordStage>());
    return stages;
}

namespace
{

/**
 * Whether guard-page contents survive from one program to the next on
 * one executor: one program stores a value into the first guard qword,
 * a second loads it and then the sandbox line it selects. The second's
 * trace after a store of 0 and of 0xfc0 differs only if the first
 * program's store reached it.
 */
bool
guardCarries(const core::CampaignConfig &cfg)
{
    const auto backend =
        executor::makeBackend(executor::BackendKind::InProcess, cfg.harness);
    const std::string guard = std::to_string(cfg.harness.map.sandboxSize());
    const isa::Program store =
        isa::assemble("MOV qword ptr [R14 + " + guard + "], RAX\n");
    const isa::Program probe =
        isa::assemble("MOV RAX, qword ptr [R14 + " + guard +
                      "]\nAND RAX, 4032\nMOV RBX, qword ptr [R14 + RAX]\n");
    const isa::FlatProgram storeFlat(store, cfg.harness.map.codeBase);
    const isa::FlatProgram probeFlat(probe, cfg.harness.map.codeBase);
    arch::Input input;
    input.sandbox.assign(cfg.harness.map.sandboxSize(), 0);
    auto traceAfter = [&](std::uint64_t value) {
        input.regs[isa::regIndex(isa::Reg::Rax)] = value;
        backend->loadProgram(store, storeFlat);
        backend->runOne(input, nullptr);
        input.regs[isa::regIndex(isa::Reg::Rax)] = 0;
        backend->loadProgram(probe, probeFlat);
        return backend->runOne(input, nullptr).trace;
    };
    const executor::UTrace zero = traceAfter(0);
    return !(traceAfter(0xfc0) == zero);
}

/** Result of the guard-read pass. */
struct GuardReads
{
    Digests digests;
    std::vector<bool> readsGuard;
};

/**
 * The reference's programs in the reference's order on one in-process
 * executor, the seven stages in order as a jobs=1 shard runs them, with
 * the per-instruction pipeline tracer on. A program reads the guard
 * page when any load of any of its runs, squashed ones included, has an
 * address within 8 bytes (the widest access) below the sandbox end or
 * past it. A program that reads none runs the same whatever the guard
 * page holds, so no schedule can change its verdict.
 */
GuardReads
guardReadPass(const core::CampaignConfig &cfg)
{
    const auto backend = executor::makeBackend(cfg.backend, cfg.harness);
    backend->setUarchTracing(true);
    contracts::LeakageModel model(cfg.contract);
    core::InputBufferPool pool;
    const executor::UarchContext canonical = backend->saveContext();
    const auto stages = pipelineStages();
    runtime::ViolationSink sink(cfg.numPrograms, cfg.maxViolationsRecorded);
    const Addr guardFrom = cfg.harness.map.sandboxEnd() - 7;
    GuardReads out;
    out.readsGuard.assign(cfg.numPrograms, false);
    Rng master(cfg.seed);
    const auto t0 = Clock::now();
    for (unsigned p = 0; p < cfg.numPrograms; ++p) {
        pipeline::ProgramPlan plan =
            pipeline::ProgramPlan::forProgram(p, master.split());
        pipeline::StageContext ctx{cfg,     *backend, model, canonical,
                                   t0,      nullptr,  &pool};
        for (const auto &stage : stages) {
            stage->run(ctx, plan);
            if (plan.halt)
                break;
        }
        for (const telemetry::UarchRunTrace &run :
             backend->takeUarchTraces())
            for (const telemetry::InstLifecycle &inst : run.insts)
                if (inst.isLoad && inst.memAddrKnown &&
                    inst.memAddr >= guardFrom)
                    out.readsGuard[p] = true;
        sink.report(p, std::move(plan.outcome));
        pool.recycleAll(plan.inputs);
    }
    out.digests = digestRecords(sink.finalize().records, cfg.numPrograms);
    return out;
}

} // namespace

Reference
runReference(const Workload &w, std::uint64_t seed)
{
    Reference ref;
    const core::CampaignConfig cfg = makeConfig(
        w, seed, 1, executor::BackendKind::InProcess, std::string());
    const auto t0 = Clock::now();
    ref.stats = core::Campaign(cfg).run();
    ref.wallSec = since(t0);
    const std::string bad = checkCounters(ref.stats, w.programs);
    if (!bad.empty())
        throw std::runtime_error("reference counters inconsistent: " + bad);
    ref.digests = digestRecords(ref.stats.records, w.programs);

    ref.replayFailed.assign(w.programs, false);
    executor::SimHarness harness(cfg.harness);
    for (const core::ViolationRecord &rec : ref.stats.records) {
        const auto r0 = Clock::now();
        const corpus::ReplayOutcome out =
            corpus::replayViolation(harness, rec);
        ref.replayUs.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - r0)
                .count());
        ++ref.replayedRecords;
        if (!out.confirmed()) {
            ++ref.replayFailures;
            ref.replayFailed[rec.programIndex] = true;
        }
    }
    ref.stats.records = {}; // digested and replayed; free them

    ref.readsGuard.assign(w.programs, false);
    ref.guardCarries = guardCarries(cfg);
    if (ref.guardCarries) {
        const auto g0 = Clock::now();
        GuardReads reads = guardReadPass(cfg);
        ref.guardPassSec = since(g0);
        if (reads.digests != ref.digests)
            throw std::runtime_error(
                "guard-read pass verdicts differ from the reference");
        ref.readsGuard = std::move(reads.readsGuard);
        ref.guardReaders = static_cast<unsigned>(std::count(
            ref.readsGuard.begin(), ref.readsGuard.end(), true));
    }
    return ref;
}

void
printReference(std::uint64_t seed, const Reference &ref)
{
    std::printf("reference seed %llu (jobs=1, inproc, no corpus): %.3f s, "
                "%llu confirmed; replayed %u records, %u failed replay; "
                "guard page %s",
                static_cast<unsigned long long>(seed), ref.wallSec,
                static_cast<unsigned long long>(
                    ref.stats.confirmedViolations),
                ref.replayedRecords, ref.replayFailures,
                ref.guardCarries ? "carries between programs"
                                 : "does not carry");
    if (ref.guardCarries)
        std::printf(", guard-read pass %.3f s: %u programs read it",
                    ref.guardPassSec, ref.guardReaders);
    std::printf("\n");
}

void
printDeterministic(const Reference &ref)
{
    const core::CampaignStats &s = ref.stats;
    auto counter = [&s](const char *name) -> unsigned long long {
        const auto it = s.metrics.find(name);
        return it == s.metrics.end()
                   ? 0
                   : static_cast<unsigned long long>(it->second.value);
    };
    using ull = unsigned long long;
    std::printf("deterministic statistics (reference run; identical for "
                "a fixed seed):\n"
                "  programs %u, skipped %u, quarantined %u\n"
                "  test cases %llu, filtered %llu, simulated inputs %llu, "
                "effective classes %llu\n"
                "  candidates %llu, validation runs %llu, confirmed %llu, "
                "signatures %zu\n"
                "  elided cycles %llu over %llu skip windows\n"
                "  timing model: unvalidated -- the repository holds no "
                "reference-hardware results, so no error figure is "
                "given\n",
                s.programs, s.skippedPrograms, s.quarantinedPrograms,
                static_cast<ull>(s.testCases),
                static_cast<ull>(s.filteredTestCases),
                static_cast<ull>(s.simInputRuns()),
                static_cast<ull>(s.effectiveClasses),
                static_cast<ull>(s.candidateViolations),
                static_cast<ull>(s.validationRuns),
                static_cast<ull>(s.confirmedViolations),
                s.signatureCounts.size(), counter("sim.skippedCycles"),
                counter("sim.skipWindows"));
}

Verdict
judge(const std::vector<const Digests *> &runs, unsigned quarantined,
      const Reference &ref)
{
    Verdict v;
    v.attempted = static_cast<unsigned>(ref.digests.size());
    v.quarantined = quarantined;
    for (unsigned p = 0; p < v.attempted; ++p) {
        bool mismatch = false;
        for (const Digests *d : runs)
            mismatch = mismatch || (*d)[p] != ref.digests[p];
        v.digestMismatches += mismatch;
        v.unexplained += mismatch && !ref.readsGuard[p];
        v.guardReaders += ref.readsGuard[p];
        v.replayFailed += ref.replayFailed[p];
        v.failed += mismatch || ref.readsGuard[p] || ref.replayFailed[p];
    }
    v.failed = std::min(v.attempted, v.failed + quarantined);
    return v;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, unsigned attempted, unsigned failed,
            const std::vector<Metric> &metrics)
{
    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            line += ", ";
        line += "\"" + metrics[i].name + "\": {\"value\": " +
                jsonNumber(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

bool
resetPeakRss()
{
    // "5" resets the peak resident set size (Linux 4.0+).
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    const bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

double
peakRssMb()
{
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long kb = 0;
        bool found = false;
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
                found = true;
                break;
            }
        std::fclose(f);
        if (found)
            return static_cast<double>(kb) / 1024.0;
    }
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace campbench
