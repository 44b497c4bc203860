/**
 * @file
 * Shared plumbing of the end-to-end benchmark: command-line options,
 * clocks, order statistics, and the result record every workload
 * prints as its last stdout line.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Reduced sizes and counts: a few seconds per workload, for the
     *  harness test. Metric names and units are unchanged. */
    bool smoke = false;
    /** Chrome-trace output of the traced run ("" = none). */
    std::string traceOut;
};

/** steady_clock nanoseconds. */
int64_t nowNs();
inline double
secondsSince(int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) / 1e9;
}

/** Linear-interpolated quantile (q in [0,1]) of @p v; 0 if empty. */
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}
/** Geometric mean of positive values; 0 if empty. */
double geomean(const std::vector<double> &v);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** Logical CPUs available to this process. */
int hostThreads();

/**
 * Moves the process round the CPUs it may run on, one step per next().
 * On a shared host each vCPU is slowed by other tenants at its own
 * times, so a run that stays on one vCPU can spend all its time on a
 * slow one; stepping samples them all evenly. Does nothing where
 * affinity cannot be read or set.
 */
class CpuRotation
{
  public:
    CpuRotation();
    /** Pin every thread of the process (and so the threads they start
     *  later) to the next CPU of the set. */
    void next();
    size_t size() const { return cpus.size(); }

  private:
    std::vector<int> cpus;
    size_t at = 0;
};

/**
 * The outcome of one benchmark run. Metrics keep insertion order;
 * `meta` is a JSON object printed on the line before the result so
 * the result line holds exactly correct/attempted/failed/metrics.
 */
struct Result
{
    int64_t attempted = 0;
    int64_t failed = 0;
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    /** Human-readable problems; any entry makes the run incorrect. */
    std::vector<std::string> errors;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void fail(const std::string &why) { errors.push_back(why); }
    bool correct() const { return errors.empty(); }
};

/** Key/value run metadata, printed as one JSON object. */
class Meta
{
  public:
    Meta &set(const std::string &key, const std::string &v);
    Meta &set(const std::string &key, const char *v)
    {
        return set(key, std::string(v));
    }
    Meta &set(const std::string &key, int64_t v);
    Meta &set(const std::string &key, int v)
    {
        return set(key, static_cast<int64_t>(v));
    }
    Meta &set(const std::string &key, double v);
    /** A reported, ungated figure: {"value": v, "unit": unit}. */
    Meta &setMetric(const std::string &key, double v,
                    const std::string &unit);

    std::string toJson() const;

  private:
    /** Pre-rendered JSON values, insertion ordered. */
    std::vector<std::pair<std::string, std::string>> entries;
};

/** Metadata every workload records (host, build, seed, sizes). */
void addCommonMeta(Meta &meta, const Options &opts);

/** Print @p meta and the errors to stdout/stderr, then the result
 *  line. @return the process exit code (0 only when correct). */
int emit(const Result &result, const Meta &meta);

Result runTable1(const Options &opts, Meta &meta, bool riptide);
Result runServe(const Options &opts, Meta &meta, bool repeat);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
