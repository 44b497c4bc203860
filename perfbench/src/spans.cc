#include "spans.hh"

#include <atomic>

#include "common.hh"
#include "trace/json.hh"

namespace perfbench {

namespace {

/** Open spans of this thread, innermost last (one Tracer per
 *  process). */
thread_local std::vector<int> openStack;

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local int tid = next.fetch_add(1);
    return tid;
}

} // namespace

int
Tracer::open(const char *name, int64_t request)
{
    int64_t t = nowNs();
    int parent = openStack.empty() ? -1 : openStack.back();
    std::lock_guard<std::mutex> lock(mu);
    if (records.empty())
        originNs = t;
    int id = static_cast<int>(records.size());
    records.push_back({name, t, 0, 0, id, parent, request,
                       threadIndex()});
    openStack.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    int64_t t = nowNs();
    openStack.pop_back();
    std::lock_guard<std::mutex> lock(mu);
    Record &r = records[static_cast<size_t>(id)];
    r.endNs = t;
    int64_t dur = t - r.startNs;
    // selfNs accumulated the children's durations (negated) while
    // the span was open.
    r.selfNs += dur;
    if (r.parent >= 0)
        records[static_cast<size_t>(r.parent)].selfNs -= dur;
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::map<std::string, Totals> out;
    for (const auto &r : records) {
        Totals &t = out[r.name];
        t.totalNs += r.endNs - r.startNs;
        t.selfNs += r.selfNs;
    }
    return out;
}

int64_t
Tracer::nsFor(const std::string &name, int64_t lo, int64_t hi,
              bool self) const
{
    std::lock_guard<std::mutex> lock(mu);
    int64_t sum = 0;
    for (const auto &r : records) {
        if (r.request >= lo && r.request < hi && name == r.name)
            sum += self ? r.selfNs : r.endNs - r.startNs;
    }
    return sum;
}

int64_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return static_cast<int64_t>(records.size());
}

double
Tracer::spanCostNs()
{
    constexpr int kSpans = 4096;
    std::vector<double> batches;
    for (int b = 0; b < 5; b++) {
        Tracer scratch;
        int64_t t0 = nowNs();
        for (int i = 0; i < kSpans; i++)
            Span s(scratch, "calibrate", i);
        batches.push_back(static_cast<double>(nowNs() - t0) / kSpans);
    }
    return median(batches);
}

void
Tracer::writeChromeTrace(std::ostream &out, int64_t requestLimit) const
{
    std::lock_guard<std::mutex> lock(mu);
    pipestitch::trace::JsonWriter w(out);
    w.beginObject();
    w.key("displayTimeUnit").value("ns");
    w.key("traceEvents").beginArray();
    for (const auto &r : records) {
        if (r.request >= requestLimit)
            continue;
        w.beginObject();
        w.key("name").value(r.name);
        w.key("cat").value("perfbench");
        w.key("ph").value("X");
        w.key("pid").value(1);
        w.key("tid").value(r.tid);
        w.key("ts").value(static_cast<double>(r.startNs - originNs) /
                          1e3);
        w.key("dur").value(static_cast<double>(r.endNs - r.startNs) /
                           1e3);
        w.key("args").beginObject();
        w.key("span").value(r.id);
        w.key("parent").value(r.parent);
        w.key("request").value(r.request);
        w.key("self_us").value(static_cast<double>(r.selfNs) / 1e3);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << "\n";
}

} // namespace perfbench
