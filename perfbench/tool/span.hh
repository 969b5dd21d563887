/**
 * @file
 * The traced run's span recorder: named [start, end) host-time
 * intervals with a parent link and the id of the cell they belong to,
 * kept in memory per thread and written out when the run ends. Self
 * time is a span minus its direct child spans.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tool.hh"

namespace perfbench
{

struct SpanRecord
{
    const char *name = "";
    uint64_t id = 0;     ///< cell (job) index, or 0 for run-level spans
    int64_t start = 0;   ///< ns, steady clock
    int64_t end = 0;
    int32_t parent = -1; ///< index into the same thread's log
};

/** One thread's spans; not thread safe (one log per worker). */
class SpanLog
{
  public:
    int32_t
    open(const char *name, uint64_t id)
    {
        SpanRecord r;
        r.name = name;
        r.id = id;
        r.parent = stack.empty() ? -1 : stack.back();
        r.start = nowNs();
        spans.push_back(r);
        stack.push_back(int32_t(spans.size() - 1));
        return stack.back();
    }

    void
    close(int32_t idx)
    {
        spans[size_t(idx)].end = nowNs();
        stack.pop_back();
    }

    const std::vector<SpanRecord> &records() const { return spans; }

  private:
    std::vector<SpanRecord> spans;
    std::vector<int32_t> stack;
};

/** RAII span: open on construction, close on scope exit. */
class Span
{
  public:
    Span(SpanLog &log_, const char *name, uint64_t id)
        : log(log_), idx(log_.open(name, id))
    {
    }
    ~Span() { log.close(idx); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog &log;
    int32_t idx;
};

/** Per-name totals over every thread's log. */
struct SpanTotals
{
    uint64_t count = 0;
    double totalS = 0.0;
    double selfS = 0.0;
    double maxS = 0.0;
};

inline std::map<std::string, SpanTotals>
aggregateSpans(const std::vector<SpanLog> &logs)
{
    std::map<std::string, SpanTotals> out;
    for (const auto &log : logs) {
        const auto &spans = log.records();
        std::vector<int64_t> child_ns(spans.size(), 0);
        for (const auto &s : spans)
            if (s.parent >= 0)
                child_ns[size_t(s.parent)] += s.end - s.start;
        for (size_t i = 0; i < spans.size(); ++i) {
            double dur = double(spans[i].end - spans[i].start) * 1e-9;
            SpanTotals &t = out[spans[i].name];
            ++t.count;
            t.totalS += dur;
            t.selfS += dur - double(child_ns[i]) * 1e-9;
            if (dur > t.maxS)
                t.maxS = dur;
        }
    }
    return out;
}

} // namespace perfbench
