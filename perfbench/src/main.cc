/**
 * @file
 * perfbench: the repository's end-to-end benchmark (see ../README.md).
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--smoke] [--trace-out FILE]
 *
 * Prints one metadata line and, last, one JSON result line:
 * {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. With
 * --trace 0 the metrics are the end-to-end ones, measured untraced;
 * with --trace 1 they are the per-layer ones from a traced run.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace {

int
usage()
{
    std::cerr << "usage: perfbench --workload "
                 "table1_dest|table1_source|serve_unique|serve_repeat "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--trace-out FILE]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--smoke") {
            opts.smoke = true;
        } else if (a == "--workload" && (v = value())) {
            opts.workload = v;
        } else if (a == "--seed" && (v = value())) {
            opts.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds" && (v = value())) {
            opts.seconds = std::atof(v);
        } else if (a == "--trace" && (v = value())) {
            opts.trace = std::string(v) == "1";
        } else if (a == "--trace-out" && (v = value())) {
            opts.traceOut = v;
        } else {
            return usage();
        }
    }
    if (opts.seconds <= 0)
        return usage();

    Meta meta;
    addCommonMeta(meta, opts);
    Result result;
    if (opts.workload == "table1_dest")
        result = runTable1(opts, meta, false);
    else if (opts.workload == "table1_source")
        result = runTable1(opts, meta, true);
    else if (opts.workload == "serve_unique")
        result = runServe(opts, meta, false);
    else if (opts.workload == "serve_repeat")
        result = runServe(opts, meta, true);
    else
        return usage();
    return emit(result, meta);
}
