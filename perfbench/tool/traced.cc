/**
 * @file
 * The traced run. It expands the same campaign specs the untraced run
 * hands to gaze_sim / gaze_serve, then executes every distinct job
 * in-process through the simulator's public interfaces, with spans
 * around each call:
 *
 *   campaign.expand     loadCampaign (parse + expand)
 *   tracing.decode      draining FileTrace::next over each corpus file
 *   harness.baseline    Runner::baselineMix, first (computing) request
 *   harness.cell        one prefetcher cell, Runner::evaluate's steps:
 *     harness.baseline_reuse  Runner::baselineMix (memo hit)
 *     sim.build               System ctor + trace and prefetcher attach
 *     sim.warmup              System::run
 *     sim.measure             System::simulate
 *     harness.summarize       collectResult + summarize + computeMetrics
 *   campaign.store / campaign.lookup / campaign.report
 *                       ResultCache::store/lookup, buildReport
 *
 * Every prefetcher is wrapped in TimedPrefetcher, which forwards each
 * hook and times it. The wrapper reports the inner scheme's name, so
 * obs scheme ids, cell keys and results are unchanged; run.py checks
 * that the cells' statistics equal the untraced run's.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/engine.hh"
#include "campaign/report.hh"
#include "campaign/spec.hh"
#include "harness/export.hh"
#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "prefetchers/factory.hh"
#include "sim/system.hh"
#include "span.hh"
#include "tool.hh"
#include "tracing/trace_io.hh"

namespace perfbench
{

namespace
{

using namespace gaze;

/** Hook call counts and host nanoseconds of one cell's prefetchers. */
struct HookTimes
{
    uint64_t accessCalls = 0;
    int64_t accessNs = 0;
    uint64_t otherCalls = 0; ///< onFill, onEvict, tick
    int64_t otherNs = 0;
};

/** Forwards every hook to the wrapped scheme and times it. */
class TimedPrefetcher final : public Prefetcher
{
  public:
    TimedPrefetcher(std::unique_ptr<Prefetcher> inner_, HookTimes *times_)
        : inner(std::move(inner_)), times(times_)
    {
    }

    std::string name() const override { return inner->name(); }

    void
    attach(const PrefetcherContext &ctx) override
    {
        Prefetcher::attach(ctx);
        inner->attach(ctx);
    }

    void
    onAccess(const DemandAccess &access) override
    {
        int64_t t0 = nowNs();
        inner->onAccess(access);
        times->accessNs += nowNs() - t0;
        ++times->accessCalls;
    }

    void
    onFill(const FillEvent &fill) override
    {
        int64_t t0 = nowNs();
        inner->onFill(fill);
        times->otherNs += nowNs() - t0;
        ++times->otherCalls;
    }

    void
    onEvict(Addr paddr, Addr vaddr) override
    {
        int64_t t0 = nowNs();
        inner->onEvict(paddr, vaddr);
        times->otherNs += nowNs() - t0;
        ++times->otherCalls;
    }

    void
    tick() override
    {
        int64_t t0 = nowNs();
        inner->tick();
        times->otherNs += nowNs() - t0;
        ++times->otherCalls;
    }

    bool busy() const override { return inner->busy(); }
    uint64_t storageBits() const override { return inner->storageBits(); }

  private:
    std::unique_ptr<Prefetcher> inner;
    HookTimes *times;
};

std::unique_ptr<Prefetcher>
timed(const std::string &spec, HookTimes *times)
{
    std::unique_ptr<Prefetcher> pf = makePrefetcher(spec);
    if (!pf)
        return nullptr;
    return std::make_unique<TimedPrefetcher>(std::move(pf), times);
}

/** One distinct job across all specs, with the config it runs under. */
struct Job
{
    CampaignJob job;
    RunConfig run;
};

/** What one prefetcher cell measured (counts are exact). */
struct CellOut
{
    RunResult base;
    RunResult result;
    PrefetchMetrics metrics;
    HookTimes hooks;
    uint64_t minCoreInstr = 0;
    uint64_t measuredCycles = 0; ///< per core, summed over cores
    CoreStats core;
    int64_t simNs = 0; ///< warmup + measure
};

/** Accumulate the cache counters the layer metrics read. */
void
addCache(CacheStats &a, const CacheStats &b)
{
    a.loadAccess += b.loadAccess;
    a.rfoAccess += b.rfoAccess;
    a.loadMiss += b.loadMiss;
    a.rfoMiss += b.rfoMiss;
    a.pfIssued += b.pfIssued;
    a.pfDroppedFull += b.pfDroppedFull;
    a.pfDroppedDup += b.pfDroppedDup;
    a.pfDroppedHit += b.pfDroppedHit;
    a.pfDroppedMshr += b.pfDroppedMshr;
    a.pfFilled += b.pfFilled;
    a.pfUseful += b.pfUseful;
    a.pfLate += b.pfLate;
}

double
frac(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

CellOut
runCell(const Job &j, uint64_t id, SpanLog &log,
        const std::shared_ptr<BaselineCache> &baselines)
{
    CellOut out;
    Span cell(log, "harness.cell", id);
    Runner runner(j.run, baselines);
    std::vector<WorkloadDef> mix(j.job.cores, j.job.workload);
    {
        Span s(log, "harness.baseline_reuse", id);
        out.base = runner.baselineMix(mix);
    }

    SystemConfig sys_cfg = j.run.system;
    sys_cfg.numCores = j.job.cores;
    std::unique_ptr<System> sys;
    std::vector<std::unique_ptr<TraceSource>> traces;
    {
        Span s(log, "sim.build", id);
        sys = std::make_unique<System>(sys_cfg);
        for (const auto &w : mix)
            traces.push_back(w.open());
        for (uint32_t c = 0; c < sys->numCores(); ++c)
            sys->setTrace(c, traces[c].get());
        for (uint32_t c = 0; c < sys->numCores(); ++c) {
            sys->setL1Prefetcher(c, timed(j.job.pf.l1, &out.hooks));
            sys->setL2Prefetcher(c, timed(j.job.pf.l2, &out.hooks));
        }
    }
    int64_t t0 = nowNs();
    {
        Span s(log, "sim.warmup", id);
        sys->run(j.run.effectiveWarmup());
    }
    sys->resetStats();
    Cycle c0 = sys->cycle();
    std::vector<CoreResult> cores;
    {
        Span s(log, "sim.measure", id);
        cores = sys->simulate(j.run.effectiveSim());
    }
    out.simNs = nowNs() - t0;
    out.measuredCycles = (sys->cycle() - c0) * sys->numCores();
    out.minCoreInstr = UINT64_MAX;
    for (const auto &c : cores)
        out.minCoreInstr = std::min(out.minCoreInstr, c.instructions);
    for (uint32_t c = 0; c < sys->numCores(); ++c) {
        const CoreStats &cs = sys->core(c).stats();
        out.core.instructions += cs.instructions;
        out.core.robFullCycles += cs.robFullCycles;
        out.core.frontendStallCycles += cs.frontendStallCycles;
    }
    {
        Span s(log, "harness.summarize", id);
        out.result = collectResult(*sys, std::move(cores));
        out.result.wallSeconds = double(out.simNs) * 1e-9;
        out.metrics = computeMetrics(summarize(out.base),
                                     summarize(out.result));
    }
    return out;
}

/**
 * Run fn(i, log) for i in [0, n) on @p threads workers. The first
 * exception a worker throws stops the remaining work and is rethrown
 * here after every worker has joined.
 */
template <typename Fn>
void
parallelFor(size_t n, uint32_t threads, std::vector<SpanLog> &logs,
            Fn &&fn)
{
    std::atomic<size_t> next{0};
    std::mutex errMtx;
    std::exception_ptr err; // guarded by errMtx
    std::vector<std::thread> pool;
    for (uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            try {
                for (size_t i = next++; i < n; i = next++)
                    fn(i, logs[t]);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMtx);
                if (!err)
                    err = std::current_exception();
                next = n;
            }
        });
    }
    for (auto &th : pool)
        th.join();
    if (err)
        std::rethrow_exception(err);
}

void
writeSpans(const std::string &path, const std::vector<SpanLog> &logs,
           int64_t origin)
{
    // Chrome trace-event JSON: one complete ("X") event per span.
    std::ofstream f(path);
    f << "{\"traceEvents\": [\n";
    bool first = true;
    for (size_t t = 0; t < logs.size(); ++t) {
        for (const auto &s : logs[t].records()) {
            if (!first)
                f << ",\n";
            first = false;
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                          "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                          "\"args\": {\"id\": %llu}}",
                          s.name, t, double(s.start - origin) * 1e-3,
                          double(s.end - s.start) * 1e-3,
                          static_cast<unsigned long long>(s.id));
            f << buf;
        }
    }
    f << "\n]}\n";
}

} // namespace

int
tracedMain(const std::vector<std::string> &args)
{
    std::vector<std::string> spec_paths =
        splitCommas(argValue(args, "--specs"));
    std::string cache_dir = argValue(args, "--cache-dir");
    std::string report_dir = argValue(args, "--report-dir");
    std::string spans_path = argValue(args, "--spans");
    uint32_t threads = uint32_t(
        std::strtoul(argValue(args, "--threads").c_str(), nullptr, 10));
    if (spec_paths.empty() || cache_dir.empty() || report_dir.empty()
        || threads == 0) {
        std::fprintf(stderr, "traced: need --specs, --cache-dir, "
                             "--report-dir and --threads\n");
        return 2;
    }

    int64_t origin = nowNs();
    // Slot 0 .. threads-1 are the workers; slot `threads` is main.
    std::vector<SpanLog> logs(threads + 1);
    SpanLog &mainLog = logs[threads];

    // ---- campaign expansion: the distinct jobs of every spec -------
    std::vector<Campaign> campaigns;
    std::vector<Job> baselineJobs, cellJobs;
    std::set<uint64_t> seen;
    for (const auto &path : spec_paths) {
        {
            Span s(mainLog, "campaign.expand", 0);
            campaigns.push_back(loadCampaign(path));
        }
        for (auto &job : expandCampaignJobs(campaigns.back())) {
            if (!seen.insert(job.hash).second)
                continue;
            Job j{job, campaigns.back().spec.run};
            (job.isBaseline ? baselineJobs : cellJobs).push_back(j);
        }
    }

    // ---- trace decode: drain each distinct corpus file once --------
    std::set<std::string> files;
    for (const auto &c : campaigns)
        for (const auto &w : c.workloads)
            files.insert(w.traceFile);
    uint64_t decoded = 0;
    int64_t decode_ns = 0;
    for (const auto &file : files) {
        Span s(mainLog, "tracing.decode", 0);
        int64_t t0 = nowNs();
        FileTrace trace(file);
        TraceRecord rec;
        while (trace.next(rec))
            ++decoded;
        decode_ns += nowNs() - t0;
    }

    // ---- baselines first (as gaze_sim and the campaign engine) -----
    auto baselines = std::make_shared<BaselineCache>(0);
    std::vector<RunResult> baseResults(baselineJobs.size());
    int64_t wall0 = nowNs();
    parallelFor(baselineJobs.size(), threads, logs,
                [&](size_t i, SpanLog &log) {
                    const Job &j = baselineJobs[i];
                    Span s(log, "harness.baseline", i + 1);
                    Runner runner(j.run, baselines);
                    baseResults[i] = runner.baselineMix(
                        std::vector<WorkloadDef>(j.job.cores,
                                                 j.job.workload));
                });
    std::vector<CellOut> cells(cellJobs.size());
    parallelFor(cellJobs.size(), threads, logs,
                [&](size_t i, SpanLog &log) {
                    cells[i] = runCell(cellJobs[i],
                                       baselineJobs.size() + i + 1, log,
                                       baselines);
                });
    double sim_wall_s = double(nowNs() - wall0) * 1e-9;

    // ---- campaign layer: publish, read back, report ----------------
    ResultCache cache(cache_dir);
    uint64_t lookups = 0, hits = 0;
    auto publish = [&](const Job &j, const RunResult &r, uint64_t id) {
        CellRecord rec;
        ++lookups;
        {
            Span s(mainLog, "campaign.lookup_miss", id);
            if (cache.lookup(j.job.hash, j.job.key, &rec))
                ++hits;
        }
        rec.key = j.job.key;
        rec.summary = summarize(r);
        rec.seconds = r.wallSeconds;
        {
            Span s(mainLog, "campaign.store", id);
            cache.store(j.job.hash, rec);
        }
        Span s(mainLog, "campaign.lookup", id);
        if (!cache.lookup(j.job.hash, j.job.key, &rec)) {
            std::fprintf(stderr, "traced: stored cell did not read back\n");
            std::exit(1);
        }
    };
    for (size_t i = 0; i < baselineJobs.size(); ++i)
        publish(baselineJobs[i], baseResults[i], i + 1);
    for (size_t i = 0; i < cellJobs.size(); ++i)
        publish(cellJobs[i], cells[i].result, baselineJobs.size() + i + 1);
    for (size_t i = 0; i < campaigns.size(); ++i) {
        CampaignReport report;
        {
            Span s(mainLog, "campaign.report", 0);
            report = buildReport(campaigns[i], cache, nullptr);
        }
        std::ofstream(report_dir + "/" + std::to_string(i) + ".json")
            << report.json;
    }

    if (!spans_path.empty())
        writeSpans(spans_path, logs, origin);

    // ---- output ----------------------------------------------------
    auto spans = aggregateSpans(logs);
    JsonWriter j;
    j.beginObject();
    j.field("threads", uint64_t(threads));
    j.field("sim_wall_s", sim_wall_s);
    j.field("baselines", uint64_t(baselineJobs.size()));
    j.field("cache_lookups", lookups);
    j.field("cache_hits", hits);
    j.field("decoded_records", decoded);
    j.field("decode_s", double(decode_ns) * 1e-9);

    j.key("spans").beginObject();
    for (const auto &kv : spans) {
        j.key(kv.first).beginObject();
        j.field("count", kv.second.count);
        j.field("total_s", kv.second.totalS);
        j.field("self_s", kv.second.selfS);
        j.field("max_s", kv.second.maxS);
        j.endObject();
    }
    j.endObject();

    // Exact counters, summed over the prefetcher cells' measured phase
    // (engine counters: the cells' whole runs, warmup included).
    CacheStats l1d, l2, llc;
    DramStats dram;
    CoreStats core;
    HookTimes hooks;
    uint64_t measured_cycles = 0, instr = 0, events = 0, cycles = 0,
             skipped = 0;
    int64_t sim_ns = 0;
    for (const auto &c : cells) {
        addCache(l1d, c.result.l1d);
        addCache(l2, c.result.l2);
        addCache(llc, c.result.llc);
        dram.reads += c.result.dram.reads;
        dram.writes += c.result.dram.writes;
        dram.rowHits += c.result.dram.rowHits;
        dram.rowMisses += c.result.dram.rowMisses;
        dram.busBusyCycles += c.result.dram.busBusyCycles;
        dram.readLatencySum += c.result.dram.readLatencySum;
        core.instructions += c.core.instructions;
        core.robFullCycles += c.core.robFullCycles;
        core.frontendStallCycles += c.core.frontendStallCycles;
        hooks.accessCalls += c.hooks.accessCalls;
        hooks.accessNs += c.hooks.accessNs;
        hooks.otherCalls += c.hooks.otherCalls;
        hooks.otherNs += c.hooks.otherNs;
        measured_cycles += c.measuredCycles;
        instr += c.result.instructionsRetired;
        events += c.result.engine.eventsDispatched;
        cycles += c.result.engine.cyclesTotal;
        skipped += c.result.engine.cyclesSkipped;
        sim_ns += c.simNs;
    }
    // DRAM is shared, so its busy fraction is over system cycles.
    uint64_t system_cycles = 0;
    for (size_t i = 0; i < cells.size(); ++i)
        system_cycles += cells[i].measuredCycles / cellJobs[i].job.cores;
    double sim_s = double(sim_ns) * 1e-9;
    j.key("counters").beginObject();
    j.field("sim_instructions", instr);
    j.field("sim_events", events);
    j.field("sim_cycles", cycles);
    j.field("sim_skip_frac", frac(double(skipped), double(cycles)));
    j.field("sim_ns_per_instr", frac(sim_s * 1e9, double(instr)));
    j.field("sim_ns_per_event", frac(sim_s * 1e9, double(events)));
    j.field("core_instructions", core.instructions);
    j.field("core_rob_full_frac",
            frac(double(core.robFullCycles), double(measured_cycles)));
    j.field("core_frontend_stall_frac",
            frac(double(core.frontendStallCycles),
                 double(measured_cycles)));
    uint64_t l1d_dropped = l1d.pfDroppedFull + l1d.pfDroppedDup
                           + l1d.pfDroppedHit + l1d.pfDroppedMshr;
    j.field("l1d_accesses", l1d.demandAccess());
    j.field("l1d_miss_frac",
            frac(double(l1d.demandMiss()), double(l1d.demandAccess())));
    j.field("l1d_pf_dropped_frac",
            frac(double(l1d_dropped), double(l1d_dropped + l1d.pfIssued)));
    j.field("l2_miss_frac",
            frac(double(l2.demandMiss()), double(l2.demandAccess())));
    j.field("llc_accesses", llc.demandAccess());
    j.field("llc_miss_frac",
            frac(double(llc.demandMiss()), double(llc.demandAccess())));
    j.field("llc_pf_dropped_mshr", llc.pfDroppedMshr);
    j.field("dram_reads", dram.reads);
    j.field("dram_writes", dram.writes);
    j.field("dram_row_hit_frac", dram.rowHitRate());
    j.field("dram_bus_busy_frac",
            frac(double(dram.busBusyCycles), double(system_cycles)));
    j.field("dram_avg_read_latency_cycles", dram.avgReadLatency());
    uint64_t useful = l1d.pfUseful + l2.pfUseful;
    uint64_t late = l1d.pfLate + l2.pfLate;
    j.field("pf_on_access_calls", hooks.accessCalls);
    j.field("pf_on_access_ns",
            frac(double(hooks.accessNs), double(hooks.accessCalls)));
    j.field("pf_hook_frac",
            frac(double(hooks.accessNs + hooks.otherNs) * 1e-9, sim_s));
    j.field("pf_issued", l1d.pfIssued + l2.pfIssued);
    j.field("pf_useful_frac",
            frac(double(useful), double(l1d.pfFilled + l2.pfFilled)));
    j.field("pf_late_frac", frac(double(late), double(useful + late)));
    j.endObject();

    // The cells' simulated statistics (run.py digests these).
    j.key("cells").beginArray();
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellOut &c = cells[i];
        const PfSpec &pf = cellJobs[i].job.pf;
        bool at_l1 = pf.l1 != "none";
        j.beginObject();
        j.field("prefetcher", at_l1 ? pf.l1 : pf.l2);
        j.field("level", at_l1 ? "l1" : "l2");
        j.field("cores", uint64_t(cellJobs[i].job.cores));
        j.field("workload", cellJobs[i].job.workload.name);
        j.field("ipc", c.result.ipc());
        j.field("base_ipc", c.base.ipc());
        j.field("speedup", c.metrics.speedup);
        j.field("accuracy", c.metrics.accuracy);
        j.field("coverage", c.metrics.coverage);
        j.field("pf_issued", c.metrics.pfIssued);
        j.field("pf_filled", c.metrics.pfFilled);
        j.field("pf_useful", c.metrics.pfUseful);
        j.field("pf_late", c.metrics.pfLate);
        j.field("llc_miss_base", c.metrics.llcMissBase);
        j.field("llc_miss_pf", c.metrics.llcMissPf);
        j.field("cycles_executed", c.result.engine.cyclesExecuted);
        j.field("cycles_skipped", c.result.engine.cyclesSkipped);
        j.field("min_core_instructions", c.minCoreInstr);
        j.field("sim_target", cellJobs[i].run.effectiveSim());
        j.endObject();
    }
    j.endArray();
    j.endObject();
    std::printf("%s\n", j.str().c_str());
    return 0;
}

} // namespace perfbench
