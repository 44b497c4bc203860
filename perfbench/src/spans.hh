/**
 * @file
 * In-memory span recorder for the traced run. The benchmark wraps
 * each call into a layer's public entry point in a Span; spans nest
 * per thread (the enclosing span is the parent) and carry the id of
 * the request or pass they belong to. At exit the recorder writes a
 * Chrome trace (opens in Perfetto) and derives each layer's self
 * time: a span's duration minus the time its child spans cover.
 *
 * Spans are taken only around library calls made from the
 * benchmark's own code; nothing inside the library is instrumented.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    struct Record
    {
        const char *name;
        int64_t startNs;
        int64_t endNs;
        int64_t selfNs; ///< duration minus direct children
        int id;         ///< this span
        int parent;     ///< enclosing span on the thread, -1 at top
        int64_t request;
        int tid;
    };

    /** Per-name totals over every recorded span. */
    struct Totals
    {
        int64_t totalNs = 0;
        int64_t selfNs = 0;
    };

    /** Open spans nest per thread; see Span. */
    int open(const char *name, int64_t request);
    void close(int id);

    std::map<std::string, Totals> totals() const;
    /** Nanoseconds of @p name summed over spans whose request id
     *  lies in [lo, hi): self time, or whole durations if !@p self. */
    int64_t nsFor(const std::string &name, int64_t lo, int64_t hi,
                  bool self) const;

    /** Write the spans whose request id is below @p requestLimit
     *  (set-up spans carry negative ids) as a Chrome trace. */
    void writeChromeTrace(std::ostream &out, int64_t requestLimit) const;

    /** Spans recorded so far. */
    int64_t size() const;

    /** Host nanoseconds one span costs (open + close), measured on a
     *  scratch recorder: the tracing overhead per span. */
    static double spanCostNs();

  private:
    mutable std::mutex mu;
    std::vector<Record> records;
    int64_t originNs = 0;
};

/** RAII span: opens on construction, closes on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, int64_t request)
        : tracer(tracer), id(tracer.open(name, request))
    {
    }
    ~Span() { tracer.close(id); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer;
    int id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
