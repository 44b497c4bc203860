#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include "trace/json.hh"

namespace perfbench {

using pipestitch::trace::JsonWriter;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double logSum = 0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
hostThreads()
{
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

CpuRotation::CpuRotation()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return;
    for (int c = 0; c < CPU_SETSIZE; c++) {
        if (CPU_ISSET(c, &set))
            cpus.push_back(c);
    }
}

void
CpuRotation::next()
{
    if (cpus.size() < 2)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[at], &set);
    at = (at + 1) % cpus.size();
    // Best effort: a thread that cannot be moved keeps its CPUs.
    DIR *tasks = opendir("/proc/self/task");
    if (!tasks) {
        sched_setaffinity(0, sizeof(set), &set);
        return;
    }
    while (dirent *e = readdir(tasks)) {
        if (e->d_name[0] != '.')
            sched_setaffinity(std::atoi(e->d_name), sizeof(set), &set);
    }
    closedir(tasks);
}

namespace {

template <typename T>
std::string
render(const T &v)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.value(v);
    return os.str();
}

} // namespace

Meta &
Meta::set(const std::string &key, const std::string &v)
{
    entries.emplace_back(key, render(v));
    return *this;
}

Meta &
Meta::set(const std::string &key, int64_t v)
{
    entries.emplace_back(key, render(v));
    return *this;
}

Meta &
Meta::set(const std::string &key, double v)
{
    entries.emplace_back(key, render(v));
    return *this;
}

Meta &
Meta::setMetric(const std::string &key, double v, const std::string &unit)
{
    entries.emplace_back(key, "{\"value\":" + render(v) +
                                  ",\"unit\":" + render(unit) + "}");
    return *this;
}

std::string
Meta::toJson() const
{
    std::string out = "{";
    for (size_t i = 0; i < entries.size(); i++) {
        if (i)
            out += ",";
        out += "\"" + pipestitch::trace::jsonEscape(entries[i].first) +
               "\":" + entries[i].second;
    }
    return out + "}";
}

void
addCommonMeta(Meta &meta, const Options &opts)
{
    meta.set("workload", opts.workload)
        .set("seed", static_cast<int64_t>(opts.seed))
        .set("seconds", opts.seconds)
        .set("smoke", opts.smoke ? "yes" : "no")
        .set("traced", opts.trace ? "yes" : "no")
        .set("nproc", hostThreads())
        .set("build_type", PERFBENCH_BUILD_TYPE)
        .set("compiler", PERFBENCH_COMPILER);
    if (opts.trace) {
        meta.set("stage_spans",
                 "spans are taken around library calls only; spans "
                 "inside the program (serve queue wait, ParallelRegions "
                 "rounds and barrier time) await the ROADMAP "
                 "stage-spans item");
    }
}

int
emit(const Result &result, const Meta &meta)
{
    for (const auto &e : result.errors)
        std::cerr << "perfbench: FAILED: " << e << "\n";
    std::cout << "{\"perfbench_meta\":" << meta.toJson() << "}\n";

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("correct").value(result.correct());
    w.key("attempted").value(result.attempted);
    w.key("failed").value(result.failed);
    w.key("metrics").beginObject();
    for (const auto &m : result.metrics) {
        w.key(m.name).beginObject();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::cout << os.str() << "\n" << std::flush;
    return result.correct() ? 0 : 1;
}

} // namespace perfbench
