/**
 * @file
 * Traced run: per-layer metrics from spans recorded around calls into
 * the library's public entry points.
 *
 * The traced driver runs the workload's programs sequentially on one
 * backend, the way a single shard does (runtime/shard_executor.cc): the
 * seven pipeline stages in order, the executor backend behind a
 * decorator that records a span per operation, a ViolationSink for
 * reporting, and for the journal workload a CorpusStore with a
 * checkpoint every 8 programs. Its verdict digests must equal the
 * reference's. Layers the stages call internally (input generation,
 * the emulator, sandbox writes, serde, the corpus on workloads without
 * one) are measured by probes on the workload's own programs, inputs and
 * records, outside the program spans.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <type_traits>

#include "arch/emulator.hh"
#include "bench.hh"
#include "corpus/checkpoint.hh"
#include "corpus/corpus_store.hh"
#include "corpus/serde.hh"
#include "executor/backend.hh"
#include "executor/backend_subprocess.hh"
#include "executor/sim_protocol.hh"
#include "pipeline/stages.hh"
#include "runtime/violation_sink.hh"
#include "telemetry/telemetry.hh"

namespace campbench
{

using namespace amulet;

namespace
{

/** In-memory span recorder; spans of one program share its index. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        double startUs;
        double endUs;
        std::int64_t id; ///< program index, -1 outside programs
        int parent;      ///< index of the enclosing span, -1: root
    };

    explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

    void setId(std::int64_t id) { id_ = id; }

    int
    begin(const char *name)
    {
        if (!on_)
            return -1;
        const int idx = static_cast<int>(spans_.size());
        spans_.push_back({name, nowUs(), 0, id_,
                          stack_.empty() ? -1 : stack_.back()});
        stack_.push_back(idx);
        return idx;
    }

    void
    end(int idx)
    {
        if (idx < 0)
            return;
        spans_[idx].endUs = nowUs();
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch_)
            .count();
    }

    bool on_;
    Clock::time_point epoch_;
    std::int64_t id_ = -1;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t), idx_(t.begin(name)) {}
    ~Scope() { t_.end(idx_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int idx_;
};

/** What the decorator counts at the executor boundary. */
struct ExecCounts
{
    std::uint64_t batchInputs = 0;
    std::uint64_t cycles = 0; ///< simulated cycles of test-case runs
    std::uint64_t insts = 0;  ///< committed instructions of those runs
    std::uint64_t elided = 0; ///< cycles skipped in those runs (inproc)
    double simSec = 0;        ///< harness simulate time of those runs
    std::uint64_t wireBytes = 0;
    std::vector<double> batchUs; ///< dispatch round trips
    double encodeSec = 0;        ///< wire-size encoding time
};

/**
 * Executor decorator: forwards every operation to the real backend and
 * records a span around it. For the in-process backend it also reads the
 * harness' simulate time and elided-cycle counter around each batch; for
 * the subprocess backend it re-encodes each batch request and reply to
 * count the bytes the pipe carried (inside a bench.* span).
 */
class TracedBackend final : public executor::SimBackend
{
  public:
    TracedBackend(std::unique_ptr<executor::SimBackend> inner,
                  Tracer &tracer, telemetry::TelemetrySink &sink)
        : inner_(std::move(inner)), t_(tracer), sink_(sink),
          inproc_(dynamic_cast<executor::InProcessBackend *>(inner_.get()))
    {
        inner_->setTelemetry(&sink_);
    }

    const char *name() const override { return inner_->name(); }
    executor::BackendCaps caps() const override { return inner_->caps(); }

    void
    loadProgram(const isa::Program &source,
                const isa::FlatProgram &flat) override
    {
        Scope s(t_, "executor.loadProgram");
        inner_->loadProgram(source, flat);
    }

    executor::UarchContext
    saveContext() override
    {
        Scope s(t_, "executor.saveContext");
        return inner_->saveContext();
    }

    void
    restoreContext(const executor::UarchContext &ctx) override
    {
        Scope s(t_, "executor.restoreContext");
        inner_->restoreContext(ctx);
    }

    BatchOutput
    dispatchBatch(const std::vector<const arch::Input *> &batch,
                  const std::vector<executor::TraceFormat> *extra) override
    {
        const double sim0 =
            inproc_ ? inproc_->harness().times().simulateSec : 0;
        const std::uint64_t elided0 = elidedCycles();
        BatchOutput out;
        {
            Scope s(t_, "executor.dispatchBatch");
            const auto t0 = Clock::now();
            out = inner_->dispatchBatch(batch, extra);
            counts.batchUs.push_back(since(t0) * 1e6);
        }
        counts.batchInputs += batch.size();
        for (const auto &run : out.runs) {
            counts.cycles += run.run.cycles;
            counts.insts += run.run.committedInsts;
        }
        if (inproc_) {
            counts.simSec += inproc_->harness().times().simulateSec - sim0;
            counts.elided += elidedCycles() - elided0;
        } else {
            Scope s(t_, "bench.wire_size");
            const auto t0 = Clock::now();
            corpus::Json inputs = corpus::Json::array();
            for (const arch::Input *in : batch)
                inputs.push(corpus::toJson(*in));
            corpus::Json req = corpus::Json::object();
            req.set("op", corpus::Json::str("batch"));
            req.set("inputs", std::move(inputs));
            const std::size_t bytes =
                req.dump().size() +
                executor::protocol::batchOutputToJson(out).dump().size();
            counts.wireBytes += bytes;
            counts.encodeSec += since(t0);
        }
        return out;
    }

    SingleOutput
    runOne(const arch::Input &input,
           const std::vector<executor::TraceFormat> *extra) override
    {
        Scope s(t_, "executor.runOne");
        return inner_->runOne(input, extra);
    }

    std::string
    classify(const arch::Input &a, const arch::Input &b,
             const executor::UarchContext &ca,
             const executor::UarchContext &cb) override
    {
        Scope s(t_, "executor.classify");
        return inner_->classify(a, b, ca, cb);
    }

    const executor::TimeBreakdown &times() override
    {
        return inner_->times();
    }

    executor::InProcessBackend *inproc() { return inproc_; }
    executor::SimBackend &inner() { return *inner_; }

    ExecCounts counts;

  private:
    std::uint64_t
    elidedCycles()
    {
        return inproc_ ? sink_.metrics().counter("sim.skippedCycles").value()
                       : 0;
    }

    std::unique_ptr<executor::SimBackend> inner_;
    Tracer &t_;
    telemetry::TelemetrySink &sink_;
    executor::InProcessBackend *inproc_;
};

const char *const kStageSpans[] = {
    "pipeline.testgen", "pipeline.ctrace",   "pipeline.filter",
    "pipeline.execute", "pipeline.analyze",  "pipeline.validate",
    "pipeline.record",
};

/** Probe tallies: layers the stages call internally. */
struct ProbeCounts
{
    std::uint64_t genBytes = 0;
    double genSec = 0;
    std::uint64_t writeBytes = 0;
    double writeSec = 0;
    std::uint64_t emuSteps = 0;
    double emuSec = 0;
    std::uint64_t encodeBytes = 0;
    double encodeSec = 0;
    double decodeSec = 0;
    std::uint64_t serdeMismatches = 0;
    std::vector<double> appendUs;
    std::vector<double> checkpointMs;
    std::vector<double> reportMs;
    std::uint64_t journalBytes = 0; ///< canonical record bytes + newlines
};

/** One sequential pass of the workload through the traced driver. */
struct Pass
{
    core::CampaignStats stats;
    double wallSec = 0;
    double benchSec = 0; ///< wire-size encoding inside the campaign loop
    unsigned capSkips = 0;
    ExecCounts exec;
    ProbeCounts probe;
    unsigned workerRestarts = 0;
    double primeSec = 0;
    std::uint64_t simRuns = 0;
    std::vector<double> simInputUs;
    telemetry::MetricsSnapshot stageMetrics;
};

/**
 * Time @p fn, add its seconds to @p sec and return its result, inside a
 * span named @p name.
 */
template <typename Fn>
auto
timed(Tracer &t, const char *name, double &sec, Fn &&fn)
{
    Scope s(t, name);
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        sec += since(t0);
    } else {
        auto r = fn();
        sec += since(t0);
        return r;
    }
}

void
probeProgram(Tracer &t, const core::CampaignConfig &cfg,
             const pipeline::ProgramPlan &plan, core::InputBufferPool &pool,
             ProbeCounts &pc)
{
    if (!plan.flat || plan.inputs.empty())
        return;
    // Input generation: regenerate the program's first base input from
    // its own stream (the stage's generator copied it, so it is intact).
    core::InputGenerator gen(cfg.inputs, plan.inputRng, &pool);
    arch::Input in = timed(t, "core.input_gen", pc.genSec,
                           [&] { return gen.generate(0); });
    pc.genBytes += in.sandbox.size();
    pool.recycle(std::move(in.sandbox));

    // Sandbox write into a fresh memory image, then the emulator.
    const arch::Input &base = plan.inputs.front();
    arch::ArchState st;
    timed(t, "mem.sandbox_write", pc.writeSec,
          [&] { st.loadInput(base, cfg.harness.map); });
    pc.writeBytes += base.sandbox.size();
    arch::Emulator emu(*plan.flat, std::move(st));
    pc.emuSteps +=
        timed(t, "arch.emulate", pc.emuSec, [&] { return emu.run(); });
}

Pass
runPass(const core::CampaignConfig &cfg, Tracer &t, bool probes,
        const std::string &probeDir)
{
    Pass pass;
    const auto t0 = Clock::now();
    std::vector<Rng> streams;
    Rng master(cfg.seed);
    for (unsigned p = 0; p < cfg.numPrograms; ++p)
        streams.push_back(master.split());

    telemetry::TelemetrySink simSink("bench/sim", t0, false, nullptr);
    telemetry::TelemetrySink stageSink("bench/shard", t0, false, nullptr);
    TracedBackend backend(executor::makeBackend(cfg.backend, cfg.harness),
                          t, simSink);
    contracts::LeakageModel model(cfg.contract);
    core::InputBufferPool pool;
    core::InputBufferPool probePool;
    const executor::UarchContext canonical = backend.saveContext();
    const auto stages = pipelineStages();

    runtime::ViolationSink sink(cfg.numPrograms, cfg.maxViolationsRecorded);
    std::unique_ptr<corpus::CorpusStore> store;
    if (!cfg.corpusDir.empty()) {
        store = std::make_unique<corpus::CorpusStore>(cfg.corpusDir, cfg);
        sink.setRecordCallback(
            [&](unsigned, const core::ViolationRecord &rec) {
                const auto a0 = Clock::now();
                Scope s(t, "corpus.append");
                store->append(rec);
                pass.probe.appendUs.push_back(since(a0) * 1e6);
            });
    }
    auto checkpoint = [&] {
        const auto c0 = Clock::now();
        Scope s(t, "corpus.checkpoint");
        corpus::writeCheckpoint(cfg.corpusDir, cfg, sink.snapshotReported());
        pass.probe.checkpointMs.push_back(since(c0) * 1e3);
    };

    double probeSec = 0;
    for (unsigned p = 0; p < cfg.numPrograms; ++p) {
        t.setId(p);
        pipeline::ProgramPlan plan;
        {
            Scope program(t, "runtime.program");
            plan = pipeline::ProgramPlan::forProgram(p, streams[p]);
            pipeline::StageContext ctx{cfg,       backend, model,
                                       canonical, t0,      &stageSink,
                                       &pool};
            try {
                for (std::size_t i = 0; i < stages.size(); ++i) {
                    {
                        Scope s(t, kStageSpans[i]);
                        stages[i]->run(ctx, plan);
                    }
                    if (plan.halt)
                        break;
                }
            } catch (const executor::WorkerQuarantineError &e) {
                plan.outcome = core::ProgramOutcome::makeQuarantined(e.what());
            }
            if (plan.outcome.skippedProgram && !plan.outcome.ran)
                ++pass.capSkips;
            core::ProgramOutcome out = std::move(plan.outcome);
            const auto r0 = Clock::now();
            Scope report(t, "runtime.report");
            if (out.quarantined && store)
                store->appendQuarantine(p, out.quarantineReason);
            sink.report(p, std::move(out));
            if (store && cfg.checkpointEvery > 0 &&
                (p + 1) % cfg.checkpointEvery == 0)
                checkpoint();
            pass.probe.reportMs.push_back(since(r0) * 1e3);
        }
        if (probes) {
            const auto q0 = Clock::now();
            probeProgram(t, cfg, plan, probePool, pass.probe);
            probeSec += since(q0);
        }
        pool.recycleAll(plan.inputs);
    }
    t.setId(-1);
    if (store)
        checkpoint();
    pass.stats = sink.finalize();
    pass.wallSec = since(t0) - probeSec;
    pass.benchSec = backend.counts.encodeSec;
    pass.exec = backend.counts;
    pass.stageMetrics = stageSink.metrics().snapshot();
    if (auto *sub = dynamic_cast<executor::SubprocessBackend *>(
            &backend.inner()))
        pass.workerRestarts = sub->restarts();
    if (backend.inproc()) {
        pass.primeSec = backend.inproc()->harness().times().primeSec;
        const auto &h = simSink.metrics().histogram("sim.inputLatencySec");
        pass.simRuns = h.count();
        for (double s : h.samples())
            pass.simInputUs.push_back(s * 1e6);
    }

    if (!probes)
        return pass;
    // Serde on every record, the unit the journal stores.
    for (const core::ViolationRecord &rec : pass.stats.records) {
        const std::string text =
            timed(t, "corpus.serde_encode", pass.probe.encodeSec,
                  [&] { return corpus::toJson(rec).dump(); });
        pass.probe.encodeBytes += text.size();
        const core::ViolationRecord back =
            timed(t, "corpus.serde_decode", pass.probe.decodeSec, [&] {
                return corpus::recordFromJson(corpus::Json::parse(text));
            });
        pass.probe.serdeMismatches +=
            corpus::toJson(back).dump() != text;
        pass.probe.journalBytes += canonicalRecord(rec).size() + 1;
    }
    // Workloads without a corpus: journal their records and write one
    // checkpoint, the cost they would pay with --corpus-dir.
    if (!store) {
        namespace fs = std::filesystem;
        fs::remove_all(probeDir);
        core::CampaignConfig probeCfg = cfg;
        probeCfg.corpusDir = probeDir;
        corpus::CorpusStore probeStore(probeDir, probeCfg);
        for (const core::ViolationRecord &rec : pass.stats.records) {
            const auto a0 = Clock::now();
            Scope s(t, "corpus.append");
            probeStore.append(rec);
            pass.probe.appendUs.push_back(since(a0) * 1e6);
        }
        const auto c0 = Clock::now();
        {
            Scope s(t, "corpus.checkpoint");
            corpus::writeCheckpoint(probeDir, probeCfg,
                                    sink.snapshotReported());
        }
        pass.probe.checkpointMs.push_back(since(c0) * 1e3);
        fs::remove_all(probeDir);
    }
    return pass;
}

/** Self time and calls per span name. */
struct SpanTotals
{
    std::uint64_t calls = 0;
    double totalUs = 0;
    double selfUs = 0;
    bool inCampaign = false; ///< inside a runtime.program span
};

std::map<std::string, SpanTotals>
totals(const std::vector<Tracer::Span> &spans)
{
    std::vector<double> childUs(spans.size(), 0);
    std::vector<bool> inProgram(spans.size(), false);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        // A parent always precedes its children.
        inProgram[i] = std::string(s.name) == "runtime.program" ||
                       (s.parent >= 0 && inProgram[s.parent]);
        if (s.parent >= 0)
            childUs[s.parent] += s.endUs - s.startUs;
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals &st = out[spans[i].name];
        const double dur = spans[i].endUs - spans[i].startUs;
        ++st.calls;
        st.totalUs += dur;
        st.selfUs += dur - childUs[i];
        st.inCampaign = st.inCampaign || inProgram[i];
    }
    return out;
}

void
writePerfetto(const std::string &path, const std::vector<Tracer::Span> &spans)
{
    std::ofstream out(path, std::ios::binary);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
            << "\",\"cat\":\""
            << std::string(s.name).substr(0, std::string(s.name).find('.'))
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << jsonNumber(s.startUs)
            << ",\"dur\":" << jsonNumber(s.endUs - s.startUs)
            << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
            << ",\"id\":" << s.id << "}}";
    }
    out << "\n]}\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0;
}

} // namespace

int
runTraced(const Options &opt)
{
    namespace fs = std::filesystem;
    const Workload &w = *opt.workload;
    fs::create_directories(opt.outDir);
    const std::string corpusDir =
        w.corpus ? opt.outDir + "/corpus-" + w.name : std::string();
    const std::string probeDir = opt.outDir + "/corpus-probe-" + w.name;
    const core::CampaignConfig cfg =
        makeConfig(w, opt.seed, 1, w.backend, corpusDir);

    const Reference ref = runReference(w, opt.seed);
    printReference(opt.seed, ref);

    bool correct = true;
    unsigned attempted = 0;
    unsigned failed = 0;
    auto check = [&](const char *label, const Pass &pass) {
        const std::string bad = checkCounters(pass.stats, w.programs);
        if (!bad.empty()) {
            std::printf("INCONSISTENT counters (%s): %s\n", label,
                        bad.c_str());
            correct = false;
        }
        const Digests digests =
            digestRecords(pass.stats.records, w.programs);
        const Verdict v =
            judge({&digests}, pass.stats.quarantinedPrograms, ref);
        attempted += v.attempted;
        failed += v.failed;
        std::printf("%s: wall %.3f s, %llu confirmed; failed %u of %u "
                    "(read the guard page %u, replay %u, digest %u of "
                    "which %u without a guard read, quarantined %u)\n",
                    label, pass.wallSec,
                    static_cast<unsigned long long>(
                        pass.stats.confirmedViolations),
                    v.failed, v.attempted, v.guardReaders,
                    v.replayFailed, v.digestMismatches, v.unexplained,
                    v.quarantined);
    };

    // Every pass that journals starts from an empty corpus.
    auto freshCorpus = [&] {
        if (!corpusDir.empty())
            fs::remove_all(corpusDir);
    };

    // Untraced and traced passes of the same driver on the workload's
    // backend and corpus; their wall ratio is the tracing overhead.
    Pass untraced;
    {
        freshCorpus();
        Tracer off(false);
        untraced = runPass(cfg, off, false, probeDir);
        check("driver, untraced", untraced);
    }
    freshCorpus();
    Tracer tracer(true);
    Pass traced = runPass(cfg, tracer, true, probeDir);
    check("driver, traced", traced);
    if (traced.probe.serdeMismatches) {
        std::printf("INCORRECT: %llu records did not survive a serde "
                    "round trip\n",
                    static_cast<unsigned long long>(
                        traced.probe.serdeMismatches));
        correct = false;
    }

    // Simulator-side metrics need the harness in this process.
    Pass simPass;
    const Pass *sim = &traced;
    if (w.backend != executor::BackendKind::InProcess) {
        core::CampaignConfig inproc = cfg;
        inproc.backend = executor::BackendKind::InProcess;
        inproc.corpusDir.clear();
        Tracer off(false);
        simPass = runPass(inproc, off, false, probeDir);
        check("driver, inproc (simulator metrics)", simPass);
        sim = &simPass;
    }

    // The runtime layer only shows under concurrency: one untraced
    // campaign at the timed run's jobs, with the library's own
    // accounting of worker time.
    double busyShare = 0;
    {
        freshCorpus();
        const core::CampaignConfig par =
            makeConfig(w, opt.seed, opt.jobs, w.backend, corpusDir);
        const core::CampaignStats s = core::Campaign(par).run();
        freshCorpus();
        busyShare = 1.0 - ratio(s.times.otherSec,
                                s.wallSeconds * static_cast<double>(s.jobs));
        const Digests digests = digestRecords(s.records, w.programs);
        const Verdict v = judge({&digests}, s.quarantinedPrograms, ref);
        std::printf("campaign, jobs=%u: wall %.3f s, shard busy share "
                    "%.4f; failed %u of %u (not counted: the timed run "
                    "measures this)\n",
                    s.jobs, s.wallSeconds, busyShare, v.failed,
                    v.attempted);
    }

    // --- per-layer metrics ----------------------------------------------
    const auto spanTotals = totals(tracer.spans());
    auto self = [&](const char *name) {
        const auto it = spanTotals.find(name);
        return it == spanTotals.end() ? 0.0 : it->second.selfUs;
    };
    auto total = [&](const char *name) {
        const auto it = spanTotals.find(name);
        return it == spanTotals.end() ? 0.0 : it->second.totalUs;
    };
    const double busyUs = total("runtime.program") - total("bench.wire_size");
    auto metricOf = [&](const char *key) -> const telemetry::MetricValue * {
        const auto it = traced.stageMetrics.find(key);
        return it == traced.stageMetrics.end() ? nullptr : &it->second;
    };
    const auto *ctraceLat = metricOf("ctrace.collectLatencySec");
    const auto *memoHits = metricOf("ctrace.memoHits");
    const auto *fullRuns = metricOf("ctrace.fullRuns");
    const double hits = memoHits ? memoHits->value : 0;
    const double fulls = fullRuns ? fullRuns->value : 0;
    const ProbeCounts &pc = traced.probe;
    const ExecCounts &ex = traced.exec;
    const core::CampaignStats &ts = traced.stats;
    const double mb = 1024.0 * 1024.0;

    std::vector<Metric> metrics = {
        {"uarch.sim_cycles_per_s", ratio(double(sim->exec.cycles),
                                         sim->exec.simSec), "cycles/s"},
        {"uarch.skip_ratio", ratio(double(sim->exec.elided),
                                   double(sim->exec.cycles)), "ratio"},
        {"executor.sim_input_us_p50", percentile(sim->simInputUs, 0.5),
         "us"},
        {"executor.sim_input_us_p99", percentile(sim->simInputUs, 0.99),
         "us"},
        {"executor.prime_us",
         ratio(sim->primeSec * 1e6, double(sim->simRuns)), "us"},
        {"executor.wire_rtt_us_p50", percentile(ex.batchUs, 0.5), "us"},
        {"executor.wire_rtt_us_p99", percentile(ex.batchUs, 0.99), "us"},
        {"executor.wire_bytes_per_input",
         ratio(double(ex.wireBytes), double(ex.batchInputs)), "B"},
        {"executor.worker_restarts", double(traced.workerRestarts),
         "count"},
        {"pipeline.confirm_ratio", ratio(double(ts.confirmedViolations),
                                         double(ts.candidateViolations)),
         "ratio"},
        {"pipeline.validation_runs_per_confirmed",
         ratio(double(ts.validationRuns), double(ts.confirmedViolations)),
         "ratio"},
    };
    for (const char *stage : kStageSpans) {
        const std::string name = std::string(stage) + "_share";
        metrics.push_back({name, ratio(self(stage), busyUs), "ratio"});
    }
    metrics.insert(
        metrics.end(),
        {
            {"runtime.other_share",
             ratio(self("runtime.program") + self("runtime.report"), busyUs),
             "ratio"},
            {"runtime.report_ms_p99", percentile(pc.reportMs, 0.99), "ms"},
            {"runtime.shard_busy_share", busyShare, "ratio"},
            {"core.input_gen_mb_per_s", ratio(pc.genBytes / mb, pc.genSec),
             "MB/s"},
            {"contracts.ctrace_us_p50",
             ctraceLat ? ctraceLat->percentile(0.5) * 1e6 : 0, "us"},
            {"contracts.memo_hit_ratio", ratio(hits, hits + fulls), "ratio"},
            {"arch.emu_steps_per_s", ratio(double(pc.emuSteps), pc.emuSec),
             "steps/s"},
            {"mem.sandbox_write_mb_per_s",
             ratio(pc.writeBytes / mb, pc.writeSec), "MB/s"},
            {"corpus.serde_encode_mb_per_s",
             ratio(pc.encodeBytes / mb, pc.encodeSec), "MB/s"},
            {"corpus.serde_decode_mb_per_s",
             ratio(pc.encodeBytes / mb, pc.decodeSec), "MB/s"},
            {"corpus.checkpoint_ms", median(pc.checkpointMs), "ms"},
            {"corpus.append_us", median(pc.appendUs), "us"},
            {"corpus.record_kb",
             ratio(pc.encodeBytes / 1024.0, double(ts.records.size())),
             "KiB"},
            {"corpus.replay_us", median(ref.replayUs), "us"},
            {"telemetry.trace_overhead_ratio",
             ratio(traced.wallSec - traced.benchSec,
                   untraced.wallSec - untraced.benchSec),
             "ratio"},
        });

    // --- report -----------------------------------------------------------
    const std::string tracePath = opt.outDir + "/trace-" + w.name + "-seed" +
                                  std::to_string(opt.seed) + ".json";
    writePerfetto(tracePath, tracer.spans());
    std::printf("\nspans: %zu recorded, written to %s (Perfetto)\n",
                tracer.spans().size(), tracePath.c_str());

    // Layers are attributed over the program loop only; boot and the
    // probes run outside it and are listed apart.
    std::map<std::string, double> layerSelf;
    double campaignSelf = 0;
    std::string topSpan;
    double topSpanSelf = -1;
    std::printf("%-34s %9s %12s %12s  %s\n", "span", "calls", "total ms",
                "self ms", "where");
    for (const auto &[name, st] : spanTotals) {
        const bool bench = name.rfind("bench.", 0) == 0;
        std::printf("%-34s %9llu %12.3f %12.3f  %s\n", name.c_str(),
                    static_cast<unsigned long long>(st.calls),
                    st.totalUs / 1e3, st.selfUs / 1e3,
                    bench ? "benchmark overhead"
                          : st.inCampaign ? "program loop" : "outside it");
        if (!st.inCampaign || bench)
            continue;
        layerSelf[name.substr(0, name.find('.'))] += st.selfUs;
        campaignSelf += st.selfUs;
        if (st.selfUs > topSpanSelf) {
            topSpanSelf = st.selfUs;
            topSpan = name;
        }
    }
    std::string topLayer;
    double topSelf = -1;
    std::printf("campaign self time by layer (ms):");
    for (const auto &[layer, us] : layerSelf) {
        std::printf(" %s=%.1f", layer.c_str(), us / 1e3);
        if (us > topSelf) {
            topSelf = us;
            topLayer = layer;
        }
    }
    std::printf("\nlargest self-time layer: %s, %.1f%% of the campaign's "
                "traced self time (largest span: %s)\n",
                topLayer.c_str(), 100.0 * ratio(topSelf, campaignSelf),
                topSpan.c_str());

    using ull = unsigned long long;
    printDeterministic(ref);
    std::printf("  traced driver: simulated cycles %llu, committed "
                "instructions %llu, IPC %.4f (test-case runs), elided "
                "cycles %llu, cycle-cap skips %u, journal bytes %llu "
                "(canonical), wire bytes %llu\n",
                static_cast<ull>(sim->exec.cycles),
                static_cast<ull>(sim->exec.insts),
                ratio(double(sim->exec.insts), double(sim->exec.cycles)),
                static_cast<ull>(sim->exec.elided), traced.capSkips,
                static_cast<ull>(pc.journalBytes),
                static_cast<ull>(ex.wireBytes));

    std::printf("\nper-layer metrics (traced run):\n");
    for (const Metric &m : metrics)
        std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("correctness: %s; %u of %u programs failed the "
                "per-program check\n",
                correct ? "counters consistent" : "FAILED", failed,
                attempted);
    printResult(correct, attempted, failed, metrics);
    return 0;
}

} // namespace campbench
