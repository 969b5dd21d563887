/**
 * @file
 * The seeded trace corpus. Each entry stands in for one workload of
 * the registry (src/workloads/suites.cc): it keeps that entry's
 * generator and shape parameters and replaces only the generator seed
 * (derived from the benchmark seed and the registry seed) and the
 * record count. Files are named <registry-name>.gzt so gaze_sim
 * --trace-dir and a campaign spec's trace_dir replay them by name.
 */

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/export.hh"
#include "tool.hh"
#include "tracing/trace_io.hh"
#include "workloads/generators.hh"
#include "workloads/graph.hh"

namespace perfbench
{

namespace
{

using gaze::VectorTrace;

/** splitmix64 finalizer: spreads (bench seed, registry seed) pairs. */
uint64_t
deriveSeed(uint64_t bench_seed, uint64_t registry_seed)
{
    uint64_t z = bench_seed * 0x9E3779B97F4A7C15ull + registry_seed;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

VectorTrace
stream(uint64_t seed, uint64_t records, uint32_t streams, uint32_t stride,
       double store_frac = 0.0, uint32_t gap = 3)
{
    gaze::StreamParams p;
    p.seed = seed;
    p.records = records;
    p.streams = streams;
    p.strideBlocks = stride;
    p.storeFraction = store_frac;
    p.gapNonMem = gap;
    return gaze::genStream(p);
}

VectorTrace
templates(uint64_t seed, uint64_t records, uint32_t num, uint32_t conflict,
          uint32_t blocks, bool shared_pc, double revisit)
{
    gaze::TemplateParams p;
    p.seed = seed;
    p.records = records;
    p.numTemplates = num;
    p.conflictDegree = conflict;
    p.blocksPerTemplate = blocks;
    p.sharedPc = shared_pc;
    p.revisitFraction = revisit;
    return gaze::genTemplates(p);
}

VectorTrace
chase(uint64_t seed, uint64_t records, uint64_t nodes, double noise)
{
    gaze::ChaseParams p;
    p.seed = seed;
    p.records = records;
    p.nodes = nodes;
    p.noiseFraction = noise;
    return gaze::genPointerChase(p);
}

gaze::GraphTraceParams
graph(uint64_t seed, uint64_t records)
{
    gaze::GraphTraceParams p;
    p.seed = seed;
    p.records = records;
    p.vertices = 1 << 17;
    p.avgDegree = 12.0;
    p.gapNonMem = 3;
    return p;
}

using Maker = std::function<VectorTrace(uint64_t bench_seed,
                                        uint64_t records)>;

/** Registry name -> generator with that entry's shape parameters. */
const std::map<std::string, Maker> &
shapes()
{
    static const std::map<std::string, Maker> table = {
        {"leslie3d",
         [](uint64_t s, uint64_t n) {
             return stream(deriveSeed(s, 101), n, 3, 1);
         }},
        {"lbm",
         [](uint64_t s, uint64_t n) {
             return stream(deriveSeed(s, 108), n, 4, 1, 0.45, 2);
         }},
        {"fotonik3d_s",
         [](uint64_t s, uint64_t n) {
             return templates(deriveSeed(s, 204), n, 9, 3, 12, true, 0.7);
         }},
        {"fluidanimate",
         [](uint64_t s, uint64_t n) {
             return templates(deriveSeed(s, 404), n, 6, 2, 14, false,
                              0.8);
         }},
        {"BFS-17",
         [](uint64_t s, uint64_t n) {
             return gaze::genBfs(graph(deriveSeed(s, 304), n), false);
         }},
        {"PageRank-1",
         [](uint64_t s, uint64_t n) {
             return gaze::genPageRank(graph(deriveSeed(s, 301), n), true);
         }},
        {"canneal",
         [](uint64_t s, uint64_t n) {
             return chase(deriveSeed(s, 403), n, 1 << 18, 0.3);
         }},
        {"mcf",
         [](uint64_t s, uint64_t n) {
             return chase(deriveSeed(s, 104), n, 1 << 18, 0.2);
         }},
    };
    return table;
}

} // namespace

int
corpusMain(const std::vector<std::string> &args)
{
    std::string seed_text = argValue(args, "--seed");
    std::string records_text = argValue(args, "--records");
    std::string out_dir = argValue(args, "--out");
    std::vector<std::string> names =
        splitCommas(argValue(args, "--workloads"));
    if (seed_text.empty() || records_text.empty() || out_dir.empty()
        || names.empty()) {
        std::fprintf(stderr, "corpus: need --seed, --records, --out and "
                             "--workloads\n");
        return 2;
    }
    uint64_t seed = std::strtoull(seed_text.c_str(), nullptr, 10);
    uint64_t records = std::strtoull(records_text.c_str(), nullptr, 10);

    double gen_s = 0.0, encode_s = 0.0;
    uint64_t total_records = 0, total_bytes = 0;
    gaze::JsonWriter j;
    j.beginObject();
    j.key("traces").beginArray();
    for (const auto &name : names) {
        auto it = shapes().find(name);
        if (it == shapes().end()) {
            std::fprintf(stderr, "corpus: no shape for workload '%s'\n",
                         name.c_str());
            return 2;
        }
        int64_t t0 = nowNs();
        VectorTrace trace = it->second(seed, records);
        int64_t t1 = nowNs();
        gaze::TraceWriter writer(
            out_dir + "/" + gaze::traceFileName(name),
            "workload=" + name + " perfbench_seed=" + seed_text);
        writer.appendAll(trace.data());
        writer.finish();
        int64_t t2 = nowNs();
        gen_s += double(t1 - t0) * 1e-9;
        encode_s += double(t2 - t1) * 1e-9;
        total_records += writer.recordsWritten();
        total_bytes += writer.payloadBytesWritten();
        j.beginObject();
        j.field("name", name);
        j.field("records", writer.recordsWritten());
        j.field("payload_bytes", writer.payloadBytesWritten());
        j.endObject();
    }
    j.endArray();
    j.field("gen_s", gen_s);
    j.field("encode_s", encode_s);
    j.field("records", total_records);
    j.field("payload_bytes", total_bytes);
    j.endObject();
    std::printf("%s\n", j.str().c_str());
    return 0;
}

} // namespace perfbench
