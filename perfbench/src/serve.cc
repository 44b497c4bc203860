/**
 * @file
 * Workloads serve_unique and serve_repeat: an in-process
 * runner::ServeServer with one worker, driven as a closed loop by one
 * client that sends each request when the previous response resolves.
 *
 *  - serve_unique: every request is a distinct small kernel x config
 *    (the kernels/ *.sir shapes with generated sizes, constants, data,
 *    variant and depth, and a per-request program name), so every
 *    request misses the prepared cache and none is a dedup hit: the
 *    prepare pipeline (compiler, analysis, mapper) dominates.
 *  - serve_repeat: requests draw from eight fixed kernel x configs,
 *    each warmed in set-up, sized so execution dominates. Three in
 *    four carry fresh data (prepared-cache hits); every fourth is a
 *    byte-identical repeat of a recent request (a dedup hit).
 *
 * Request i depends only on (seed, i), so the first 1024 requests
 * are the same in every run at one seed: the simulated totals are
 * taken over them.
 */

#include <algorithm>
#include <cctype>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>

#include "base/hash.hh"
#include "base/logging.hh"
#include "common.hh"
#include "pipeline.hh"
#include "runner/serve.hh"
#include "sir/parser.hh"
#include "trace/json.hh"
#include "trace/json_parse.hh"

namespace perfbench {

using namespace pipestitch;
using runner::ServeServer;

namespace {

/** One serve worker and one closed-loop client. With two of each,
 *  the p90s spread several times wider run to run on a shared 4-vCPU
 *  host (see README.md, Steadiness). */
constexpr int kJobs = 1;
constexpr int kRepeatConfigs = 8;
constexpr int kRepeatWarmups = kRepeatConfigs; ///< one per config
constexpr int kUniqueWarmups = 16;
constexpr int kBlock = 64;     ///< requests per wall_s block
/** Set-up rounds aimed for over the timed phase (see untraced). */
constexpr int kSetupRounds = 20;

/** SplitMix64: request i's generator is seeded from (seed, i). */
struct Rng
{
    uint64_t s;
    uint64_t
    next()
    {
        uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [lo, hi]. */
    int
    range(int lo, int hi)
    {
        return lo + static_cast<int>(next() %
                                     static_cast<uint64_t>(hi - lo + 1));
    }
};

Rng
rngFor(uint64_t seed, uint64_t stream, uint64_t index)
{
    Rng r{seed * 0x100000001b3ull ^ (stream << 48) ^ index};
    r.next();
    return r;
}

/** A kernel shape from kernels/ *.sir at generated sizes. */
enum class Shape { Scale, Steps, Spmv, Histogram, Lists, Chain };
constexpr int kShapes = 6;

struct Body
{
    std::string sir;
    std::vector<std::pair<std::string, int64_t>> liveins;
    std::vector<std::pair<std::string, std::vector<int64_t>>> init;
};

std::vector<int64_t>
randomArray(Rng &r, int n, int lo, int hi)
{
    std::vector<int64_t> v(static_cast<size_t>(n));
    for (auto &x : v)
        x = r.range(lo, hi);
    return v;
}

/** Program text for @p shape of size @p n named @p name; @p k is a
 *  per-program constant. Data comes from @p data. */
Body
makeBody(Shape shape, const std::string &name, int n, int k, Rng &data)
{
    Body b;
    switch (shape) {
    case Shape::Scale:
        b.sir = csprintf("program %s\narray x %d\narray y %d\n"
                         "livein n\n\n"
                         "foreach i = 0 .. n:\n"
                         "  v = load x[i]\n"
                         "  s = mul v %d\n"
                         "  r = add s %d\n"
                         "  store y[i] = r\n"
                         "end\n",
                         name.c_str(), n, n, 3 + k % 7, 7 + k % 11);
        b.liveins = {{"n", n}};
        b.init = {{"x", randomArray(data, n, 0, 999)}};
        break;
    case Shape::Steps:
        b.sir = csprintf("program %s\narray seeds %d\narray steps %d\n"
                         "livein n\nlivein threshold\n\n"
                         "foreach i = 0 .. n:\n"
                         "  v = load seeds[i]\n"
                         "  c = const 0\n"
                         "  while:\n"
                         "    big = gt v threshold\n"
                         "  cond big\n"
                         "  do:\n"
                         "    half = shr v 1\n"
                         "    v = add half 0\n"
                         "    c = add c %d\n"
                         "  end\n"
                         "  store steps[i] = c\n"
                         "end\n",
                         name.c_str(), n, n, 1 + k % 3);
        b.liveins = {{"n", n}, {"threshold", 2 + k % 5}};
        b.init = {{"seeds", randomArray(data, n, 1, 4095)}};
        break;
    case Shape::Spmv: {
        std::vector<int64_t> rowptr{0}, colidx, val;
        for (int i = 0; i < n; i++) {
            int nnz = data.range(0, 4);
            for (int j = 0; j < nnz; j++) {
                colidx.push_back(data.range(0, n - 1));
                val.push_back(data.range(-9, 9));
            }
            rowptr.push_back(static_cast<int64_t>(colidx.size()));
        }
        // Arrays sized for the most non-zeros the rows can hold, so
        // the program text depends on n alone, not on the data.
        int nnzTotal = 4 * n;
        b.sir = csprintf("program %s\narray rowptr %d\narray colidx %d\n"
                         "array val %d\narray x %d\narray y %d\n"
                         "livein n\n\n"
                         "foreach i = 0 .. n:\n"
                         "  start = load rowptr[i]\n"
                         "  stop1 = add i 1\n"
                         "  stop = load rowptr[stop1]\n"
                         "  acc = const %d\n"
                         "  for k = start .. stop:\n"
                         "    c = load colidx[k]\n"
                         "    v = load val[k]\n"
                         "    xv = load x[c]\n"
                         "    prod = mul v xv\n"
                         "    acc = add acc prod\n"
                         "  end\n"
                         "  store y[i] = acc\n"
                         "end\n",
                         name.c_str(), n + 1, nnzTotal, nnzTotal, n, n,
                         k % 5);
        b.liveins = {{"n", n}};
        b.init = {{"rowptr", rowptr},
                  {"colidx", colidx},
                  {"val", val},
                  {"x", randomArray(data, n, -50, 50)}};
        break;
    }
    case Shape::Histogram:
        b.sir = csprintf("program %s\narray data %d\narray hist 8\n"
                         "livein n\n\n"
                         "for i = 0 .. n:\n"
                         "  v = load data[i]\n"
                         "  bucket = and v 7\n"
                         "  old = load hist[bucket]\n"
                         "  upd = add old %d\n"
                         "  store hist[bucket] = upd\n"
                         "end\n",
                         name.c_str(), n, 1 + k % 3);
        b.liveins = {{"n", n}};
        b.init = {{"data", randomArray(data, n, 0, 255)}};
        break;
    case Shape::Lists: {
        // n list heads over 4n nodes; each node joins a random list.
        int nodes = 4 * n;
        std::vector<int64_t> map(static_cast<size_t>(n), -1),
            next(static_cast<size_t>(nodes), -1),
            val = randomArray(data, nodes, 0, 3);
        for (int p = nodes - 1; p >= 0; p--) {
            int list = data.range(0, n - 1);
            next[static_cast<size_t>(p)] = map[static_cast<size_t>(list)];
            map[static_cast<size_t>(list)] = p;
        }
        b.sir = csprintf("program %s\narray map %d\narray next %d\n"
                         "array val %d\narray Z %d\nlivein N\n\n"
                         "foreach i = 0 .. N:\n"
                         "  p = load map[i]\n"
                         "  c = const %d\n"
                         "  while:\n"
                         "    alive = gt p -1\n"
                         "  cond alive\n"
                         "  do:\n"
                         "    v = load val[p]\n"
                         "    nz = ne v 0\n"
                         "    if nz:\n"
                         "      c = add c 1\n"
                         "    end\n"
                         "    p = load next[p]\n"
                         "  end\n"
                         "  store Z[i] = c\n"
                         "end\n",
                         name.c_str(), n, nodes, nodes, n, k % 4);
        b.liveins = {{"N", n}};
        b.init = {{"map", map}, {"next", next}, {"val", val}};
        break;
    }
    case Shape::Chain:
        b.sir = csprintf("program %s\narray x %d\narray out 1\n"
                         "livein n\nlivein scale\n\n"
                         "i = const 0\n"
                         "acc = const 0\n"
                         "while:\n"
                         "  alive = lt i n\n"
                         "cond alive\n"
                         "do:\n"
                         "  v = load x[i]\n"
                         "  t1 = mul acc scale\n"
                         "  t2 = add t1 v\n"
                         "  t3 = xor t2 %d\n"
                         "  t4 = add t3 1\n"
                         "  t5 = mul t4 3\n"
                         "  acc = add t5 0\n"
                         "  i = add i 1\n"
                         "end\n"
                         "store out[0] = acc\n",
                         name.c_str(), n, 1 + k % 13);
        b.liveins = {{"n", n}, {"scale", 2 + k % 4}};
        b.init = {{"x", randomArray(data, n, 0, 99)}};
        break;
    }
    return b;
}

const char *kVariants[] = {"pipestitch", "riptide", "pipesb",
                           "pipecfin", "pipecfop"};

std::string
renderLine(const std::string &id, const Body &b, const char *variant,
           int depth)
{
    std::ostringstream os;
    trace::JsonWriter w(os);
    w.beginObject();
    w.key("id").value(id);
    w.key("sir").value(b.sir);
    w.key("variant").value(variant);
    w.key("depth").value(depth);
    w.key("liveins").beginObject();
    for (const auto &[name, v] : b.liveins)
        w.key(name).value(v);
    w.endObject();
    w.key("init").beginObject();
    for (const auto &[name, vals] : b.init) {
        w.key(name).beginArray();
        for (int64_t x : vals)
            w.value(x);
        w.endArray();
    }
    w.endObject();
    w.endObject();
    return os.str();
}

/** The eight serve_repeat configurations: shape, size, variant,
 *  depth. Fixed (not seeded), so prepared computes are always 8. */
struct RepeatConfig
{
    Shape shape;
    int n;
    const char *variant;
    int depth;
};
const RepeatConfig kRepeat[kRepeatConfigs] = {
    {Shape::Scale, 256, "pipestitch", 4},
    {Shape::Steps, 128, "pipestitch", 4},
    {Shape::Spmv, 128, "pipestitch", 4},
    {Shape::Histogram, 256, "riptide", 4},
    {Shape::Lists, 48, "pipestitch", 4},
    {Shape::Chain, 128, "pipesb", 4},
    {Shape::Steps, 128, "riptide", 8},
    {Shape::Spmv, 128, "pipecfop", 2},
};

class Generator
{
  public:
    Generator(uint64_t seed, bool repeat, bool smoke)
        : seed(seed), repeatMode(repeat), smoke(smoke)
    {
    }

    /** Request line @p i (a pure function of seed and i). */
    std::string
    make(int64_t i) const
    {
        const std::string id = "r" + std::to_string(i);
        if (!repeatMode) {
            Rng r = rngFor(seed, 1, static_cast<uint64_t>(i));
            return uniqueLine(id, "u", i, r);
        }
        return freshLine(isRepeat(i) ? i - 2 : i, id);
    }

    int warmupCount() const
    {
        return repeatMode ? kRepeatWarmups : kUniqueWarmups;
    }

    /** Every fourth serve_repeat request repeats, byte for byte, the
     *  one two before it (sent while the request between them may
     *  still be running). */
    bool isRepeat(int64_t i) const { return repeatMode && i % 4 == 3; }

    /**
     * The set-up's warm-up requests: serve_repeat prepares each of its
     * configurations; serve_unique serves distinct kernels of its own
     * (never repeated later).
     */
    std::vector<std::string>
    warmups() const
    {
        std::vector<std::string> out;
        for (int c = 0; c < warmupCount(); c++) {
            Rng r = rngFor(seed, 3, static_cast<uint64_t>(c));
            const std::string id = "w" + std::to_string(c);
            if (repeatMode) {
                out.push_back(renderLine(id, bodyFor(c, r),
                                         kRepeat[c].variant,
                                         kRepeat[c].depth));
            } else {
                out.push_back(uniqueLine(id, "w", c, r));
            }
        }
        return out;
    }

  private:
    /** A distinct kernel x config: the program name carries the seed
     *  and index, so no two requests share a prepared artifact. */
    std::string
    uniqueLine(const std::string &id, const char *prefix, int64_t i,
               Rng &r) const
    {
        // The structural mix (shape, size, variant, depth) cycles
        // with the index, so every seed serves the same mix; the seed
        // draws the constants and the data.
        auto shape = static_cast<Shape>(i % kShapes);
        int n = smoke ? 4 + static_cast<int>(i % 9)
                      : 8 + static_cast<int>((i * 7) % 33);
        int k = r.range(0, 1 << 20);
        const char *variant = kVariants[(i / kShapes) % 5];
        int depth = (i / (kShapes * 5)) % 2 ? 8 : 4;
        Body b = makeBody(shape,
                          csprintf("%s%llu_%lld", prefix,
                                   static_cast<unsigned long long>(seed),
                                   static_cast<long long>(i)),
                          n, k, r);
        return renderLine(id, b, variant, depth);
    }

    Body
    bodyFor(int c, Rng &r) const
    {
        const RepeatConfig &cfg = kRepeat[c];
        int n = smoke ? std::max(4, cfg.n / 8) : cfg.n;
        return makeBody(cfg.shape, "rep" + std::to_string(c), n, c, r);
    }

    /** serve_repeat request @p i's configuration with fresh data. */
    std::string
    freshLine(int64_t i, const std::string &id) const
    {
        Rng r = rngFor(seed, 4, static_cast<uint64_t>(i));
        int c = static_cast<int>(i % kRepeatConfigs);
        return renderLine(id, bodyFor(c, r), kRepeat[c].variant,
                          kRepeat[c].depth);
    }

    uint64_t seed;
    bool repeatMode;
    bool smoke;
};

/** Parse a request line into a kernel and config the way the server
 *  does (JSON, then SIR, then live-in and memory binding). With a
 *  tracer, the JSON and SIR steps run under spans. */
bool
kernelFromLine(const std::string &line, workloads::KernelInstance &k,
               RunConfig &cfg, std::string &err, Tracer *tracer,
               int64_t request)
{
    trace::JsonValue v;
    if (!trace::parseJson(line, v, &err))
        return false;
    const auto *sirText = v.find("sir");
    if (!sirText) {
        err = "no sir";
        return false;
    }
    const std::string variant = v.find("variant")->asString();
    for (auto var : {compiler::ArchVariant::RipTide,
                     compiler::ArchVariant::Pipestitch,
                     compiler::ArchVariant::PipeSB,
                     compiler::ArchVariant::PipeCFiN,
                     compiler::ArchVariant::PipeCFoP}) {
        std::string name = compiler::archVariantName(var);
        std::transform(name.begin(), name.end(), name.begin(),
                       [](unsigned char ch) { return std::tolower(ch); });
        if (name == variant)
            cfg.variant = var;
    }
    cfg.sim.bufferDepth = static_cast<int>(v.find("depth")->asInt(4));

    std::unique_ptr<Span> span;
    if (tracer)
        span = std::make_unique<Span>(*tracer, "sir.parse", request);
    auto parsed = sir::parseSir(sirText->str, "<request>");
    span.reset();
    k.name = parsed.program.name;
    k.prog = std::move(parsed.program);
    const auto *liveins = v.find("liveins");
    for (sir::Reg r : k.prog.liveIns) {
        const auto *x =
            liveins->find(k.prog.regNames[static_cast<size_t>(r)]);
        k.liveIns.push_back(x ? static_cast<sir::Word>(x->asInt()) : 0);
    }
    k.memory = scalar::makeMemory(k.prog);
    for (const auto &[name, vals] : v.find("init")->members) {
        const auto &arr = k.prog.array(parsed.arrays.at(name));
        for (size_t i = 0; i < vals.elems.size(); i++) {
            k.memory[static_cast<size_t>(arr.base) + i] =
                static_cast<sir::Word>(vals.elems[i].asInt());
        }
    }
    return true;
}

/** What a response must say: the golden memory hash of its request. */
std::string
expectedMemHash(const std::string &line, std::string &err)
{
    workloads::KernelInstance k;
    RunConfig cfg;
    if (!kernelFromLine(line, k, cfg, err, nullptr, 0))
        return "";
    ScalarRun golden = runOnScalar(k);
    Hasher h;
    h.vec(golden.memory);
    return hashHex(h.digest());
}

/** One completed request as the client saw it. */
struct Done
{
    int64_t index = 0;
    int64_t submitNs = 0;
    int64_t submitDurNs = 0; ///< time inside submit()
    int64_t doneNs = 0; ///< max(server's done stamp, submit return)
    /** Client time spent between the previous completion and this
     *  submit in closedLoop's @p between hook, not serving. */
    int64_t pauseNs = 0;
    bool ok = false;    ///< answered "ok" (and, if checked, golden)
    int64_t cycles = 0;
    double energyPj = 0;
    std::string memHash;
    std::string error;
};

struct LoopResult
{
    std::vector<Done> done; ///< in request order
    double seconds = 0;     ///< first submit to last completion,
                            ///< less the pauses
    /** Peak RSS when the first minRequests had completed: the
     *  prepared cache grows with every distinct request, so a peak
     *  over the whole run would grow with the program's speed. */
    double prefixRssMb = 0;
    int64_t goldenChecked = 0;
};

/** Requests whose memory hash the harness recomputes after the run:
 *  the whole prefix, then every kGoldenStride-th request. The server
 *  itself verifies every request against golden before answering ok. */
constexpr int64_t kGoldenStride = 8;

/**
 * The closed loop: one client sends request i + 1 as soon as the
 * response to request i resolves, until @p seconds have passed and
 * at least @p minRequests were sent. Before request i the client calls
 * @p between(i), if given; that time is recorded in the request's
 * Done::pauseNs and left out of out.seconds.
 */
LoopResult
closedLoop(ServeServer &server, const Generator &gen, double seconds,
           int64_t minRequests,
           const std::function<void(int64_t)> &between = {})
{
    LoopResult out;
    const int64_t start = nowNs();
    int64_t pausedNs = 0;
    for (int64_t i = 0; i < minRequests || secondsSince(start) < seconds;
         i++) {
        Done d;
        if (between) {
            const int64_t t0 = nowNs();
            between(i);
            d.pauseNs = nowNs() - t0;
            pausedNs += d.pauseNs;
        }
        const std::string line = gen.make(i);
        d.index = i;
        d.submitNs = nowNs();
        ServeServer::Response resp = server.submit(line);
        const int64_t returned = nowNs();
        const std::string &payload = resp.payload.get();
        d.submitDurNs = returned - d.submitNs;
        d.doneNs = std::max(resp.doneNs->load(), returned);
        if (i + 1 == minRequests)
            out.prefixRssMb = peakRssMb();

        trace::JsonValue v;
        if (!trace::parseJson(payload, v, &d.error)) {
            d.error = "bad response: " + d.error;
        } else if (!v.find("status") ||
                   v.find("status")->asString() != "ok") {
            d.error = payload;
        } else {
            d.ok = true;
            d.cycles = v.find("cycles")->asInt();
            d.energyPj = v.find("energy_pj")->asDouble();
            d.memHash = v.find("mem_hash")->asString();
        }
        out.done.push_back(std::move(d));
    }

    int64_t last = start;
    for (auto &d : out.done) {
        last = std::max(last, d.doneNs);
        if (d.ok && (d.index < minRequests || d.index % kGoldenStride == 0)) {
            std::string want = expectedMemHash(gen.make(d.index), d.error);
            out.goldenChecked++;
            if (want.empty() || want != d.memHash) {
                d.ok = false;
                if (d.error.empty())
                    d.error = "memory differs from golden";
            }
        }
    }
    out.seconds = static_cast<double>(last - start - pausedNs) / 1e9;
    return out;
}

/** Count the requests that ended ok; fail @p result for the others
 *  (naming the first few). */
int64_t
countOk(const LoopResult &loop, Result &result)
{
    int64_t ok = 0;
    for (const auto &d : loop.done) {
        if (d.ok) {
            ok++;
        } else if (result.errors.size() < 10) {
            result.fail("request " + std::to_string(d.index) + ": " +
                        d.error);
        }
    }
    if (ok < static_cast<int64_t>(loop.done.size())) {
        result.fail(csprintf("%lld of %zu requests failed",
                             static_cast<long long>(
                                 static_cast<int64_t>(loop.done.size()) - ok),
                             loop.done.size()));
    }
    return ok;
}

struct Server
{
    std::unique_ptr<ServeServer> server;
    double setupSeconds = 0;
};

/** Set-up: construct the server and serve the warm-up requests
 *  (for serve_repeat, this prepares every configuration). */
Server
setUp(const Generator &gen, Result &result)
{
    Server s;
    int64_t t0 = nowNs();
    runner::ServeOptions so;
    so.jobs = kJobs;
    s.server = std::make_unique<ServeServer>(so);
    std::vector<ServeServer::Response> warm;
    for (const auto &line : gen.warmups())
        warm.push_back(s.server->submit(line));
    for (const auto &r : warm) {
        if (r.payload.get().find("\"status\":\"ok\"") ==
            std::string::npos)
            result.fail("warm-up " + r.id + ": " + r.payload.get());
    }
    s.setupSeconds = secondsSince(t0);
    return s;
}

/** Check the server's own counters against the generated traffic. */
void
selfCheck(ServeServer &server, const LoopResult &loop,
          const Generator &gen, bool repeat, Result &result)
{
    auto st = server.stats();
    auto memo = server.cache().stats();
    int64_t n = static_cast<int64_t>(loop.done.size());
    int64_t repeats = 0;
    for (const auto &d : loop.done)
        repeats += gen.isRepeat(d.index) ? 1 : 0;
    const int64_t warm = gen.warmupCount();
    auto expect = [&](const char *what, int64_t got, int64_t want) {
        if (got != want) {
            result.fail(csprintf("traffic self-check: %s = %lld, "
                                 "generated mix implies %lld",
                                 what, static_cast<long long>(got),
                                 static_cast<long long>(want)));
        }
    };
    expect("dedupHits", st.dedupHits, repeats);
    expect("rejected", st.rejected, 0);
    expect("preparedComputes", memo.preparedComputes,
           repeat ? warm : warm + n);
    expect("preparedHits", memo.preparedHits, repeat ? n - repeats : 0);
    expect("mapComputes", memo.mapComputes, repeat ? warm : warm + n);
}

Result
untraced(const Options &opts, bool repeat, Meta &meta)
{
    Result result;
    Generator gen(opts.seed, repeat, opts.smoke);
    const int64_t prefix = opts.smoke ? 32 : 1024;
    // The process moves to the next CPU every block (see CpuRotation).
    // Set-up is sampled in rounds: a round builds a fresh server once
    // on each CPU and keeps the fastest time, and setup_s is the median
    // over the rounds. The first round's last server serves the run;
    // later rounds are spread over the run once the prefix has
    // completed, so they do not raise the peak RSS taken there.
    CpuRotation cpus;
    std::vector<double> setupSeconds;
    auto setUpRound = [&]() {
        Server kept;
        double best = 0;
        for (size_t c = 0; c < std::max<size_t>(1, cpus.size()); c++) {
            cpus.next();
            kept = setUp(gen, result);
            best = c == 0 ? kept.setupSeconds
                          : std::min(best, kept.setupSeconds);
        }
        setupSeconds.push_back(best);
        cpus.next();
        return kept;
    };
    Server s = setUpRound();
    if (!result.errors.empty())
        return result;
    int64_t lastRound = nowNs();
    auto between = [&](int64_t i) {
        if (i % kBlock != 0)
            return;
        if (i >= prefix &&
            secondsSince(lastRound) >= opts.seconds / kSetupRounds) {
            setUpRound();
            lastRound = nowNs();
        } else {
            cpus.next();
        }
    };

    LoopResult loop =
        closedLoop(*s.server, gen, opts.seconds, prefix, between);
    selfCheck(*s.server, loop, gen, repeat, result);

    const int64_t ok = countOk(loop, result);
    std::vector<double> latMs, doneAt;
    double cycles = 0, energyUj = 0;
    int64_t pausedNs = 0;
    for (const auto &d : loop.done) {
        latMs.push_back(static_cast<double>(d.doneNs - d.submitNs) / 1e6);
        pausedNs += d.pauseNs;
        doneAt.push_back(static_cast<double>(d.doneNs - pausedNs) / 1e9);
        if (d.index < prefix) {
            cycles += static_cast<double>(d.cycles);
            energyUj += d.energyPj / 1e6;
        }
    }
    std::sort(doneAt.begin(), doneAt.end());
    std::vector<double> blocks;
    for (size_t b = kBlock; b < doneAt.size(); b += kBlock)
        blocks.push_back(doneAt[b] - doneAt[b - kBlock]);

    auto n = static_cast<int64_t>(loop.done.size());
    result.attempted = n;
    result.failed = n - ok;
    result.add("setup_s", median(setupSeconds), "s");
    result.add("wall_s", quantile(blocks, 0.9), "s");
    result.add("latency_p90_ms", quantile(latMs, 0.9), "ms");
    result.add("peak_rss_mb", loop.prefixRssMb, "MB");
    result.add("ok_frac", static_cast<double>(ok) / static_cast<double>(n),
               "frac");
    result.add("fabric_cycles", cycles, "cycles");
    result.add("fabric_energy_uj", energyUj, "uJ");

    meta.set("setup_rounds", static_cast<int64_t>(setupSeconds.size()))
        .set("setup_schedule",
             csprintf("a round (one fresh server per CPU, the fastest "
                      "kept) before the loop, then one every %.3g s "
                      "once the prefix has completed",
                      opts.seconds / kSetupRounds))
        .set("cpus_rotated", static_cast<int64_t>(cpus.size()))
        .set("cpu_step_requests", kBlock)
        .set("serve_jobs", s.server->threadCount())
        .set("loop", "closed, one client")
        .set("requests", n)
        .set("golden_rechecked", loop.goldenChecked)
        .set("latency_samples", n)
        .set("samples_beyond_p90", n / 10)
        .set("wall_s_blocks", static_cast<int64_t>(blocks.size()))
        .set("wall_s_block_requests", kBlock)
        .setMetric("ungated.throughput_rps",
                   static_cast<double>(n) / loop.seconds, "1/s")
        .setMetric("ungated.latency_p50_ms", quantile(latMs, 0.5), "ms")
        .set("fabric_prefix_requests", prefix)
        .set("peak_rss_at", "completion of the prefix requests")
        .set("repeat_configs", repeat ? kRepeatConfigs : 0);
    return result;
}

/** The traced replica of one request: the server's worker path, with
 *  a span around each layer call. */
struct TracedRequest
{
    bool executed = false; ///< false for a dedup hit
    bool ok = false;
    bool failed = false;
    FabricRun run;
};

TracedRequest
tracedRequest(const std::string &line, runner::MemoCache &memo,
              std::set<uint64_t> &seen, Tracer &tracer, int64_t index,
              Result &result)
{
    TracedRequest out;
    Span whole(tracer, "runner.request", index);
    workloads::KernelInstance k;
    RunConfig cfg;
    cfg.quiet = true;
    cfg.cache = &memo;
    std::string err;
    {
        Span s(tracer, "runner.parse_request", index);
        if (!kernelFromLine(line, k, cfg, err, &tracer, index)) {
            result.fail("traced parse: " + err);
            out.failed = true;
            return out;
        }
    }
    {
        Span s(tracer, "runner.dedup", index);
        if (!seen.insert(runner::MemoCache::runKey(k, cfg)).second)
            return out; // served from the first copy's response
    }
    out.executed = true;
    PreparedPtr prep = tracedPrepare(k, cfg, tracer, index, err);
    if (prep)
        out.run = tracedExecute(*prep, k, cfg, tracer, index, err);
    out.ok = prep && runOk(out.run, err);
    out.failed = !out.ok;
    if (out.failed)
        result.fail("traced request " + std::to_string(index) + ": " + err);
    return out;
}

Result
traced(const Options &opts, bool repeat, Meta &meta)
{
    Result result;
    Generator gen(opts.seed, repeat, opts.smoke);
    const int64_t prefix = opts.smoke ? 32 : 1024;

    // Untraced half: the real server, for the runner counters.
    Server s = setUp(gen, result);
    if (!result.errors.empty())
        return result;
    LoopResult loop =
        closedLoop(*s.server, gen, opts.seconds / 2, prefix);
    selfCheck(*s.server, loop, gen, repeat, result);
    const int64_t ok = countOk(loop, result);
    auto st = s.server->stats();
    auto memo = s.server->cache().stats();
    std::vector<double> latMs;
    std::vector<int64_t> refCycles(static_cast<size_t>(prefix), -1);
    double submitUs = 0;
    for (const auto &d : loop.done) {
        latMs.push_back(static_cast<double>(d.doneNs - d.submitNs) / 1e6);
        submitUs += static_cast<double>(d.submitDurNs) / 1e3;
        if (d.index < prefix)
            refCycles[static_cast<size_t>(d.index)] = d.cycles;
    }
    auto n = static_cast<int64_t>(loop.done.size());

    // Traced half: the same request stream through the layer entry
    // points, one request at a time like the server's worker.
    Tracer tracer;
    runner::MemoCache replicaMemo;
    std::set<uint64_t> seen;
    int64_t w = 0;
    for (const auto &line : gen.warmups())
        tracedRequest(line, replicaMemo, seen, tracer, -1 - w++, result);
    std::vector<TracedRequest> prefixRuns(static_cast<size_t>(prefix));
    int64_t tracedN = 0, tracedFailed = 0;
    const int64_t start = nowNs();
    for (; tracedN < prefix || secondsSince(start) < opts.seconds / 2;
         tracedN++) {
        TracedRequest tr = tracedRequest(gen.make(tracedN), replicaMemo,
                                         seen, tracer, tracedN, result);
        tracedFailed += tr.failed ? 1 : 0;
        if (tracedN < prefix)
            prefixRuns[static_cast<size_t>(tracedN)] = std::move(tr);
    }
    const double overhead = static_cast<double>(tracer.size()) *
                            Tracer::spanCostNs() /
                            static_cast<double>(nowNs() - start);

    // Deterministic per-request averages over the prefix.
    double nodes = 0, cost = 0, fires = 0, runCycles = 0, stallIn = 0,
           stallSpace = 0, bank = 0, executed = 0;
    std::vector<double> hops, tightness;
    for (int64_t i = 0; i < prefix; i++) {
        const auto &tr = prefixRuns[static_cast<size_t>(i)];
        if (!tr.executed)
            continue;
        const auto &st = tr.run.sim.stats;
        if (tr.ok && refCycles[static_cast<size_t>(i)] != st.cycles)
            result.fail(csprintf("request %lld: traced cycles %lld, "
                                 "served %lld",
                                 static_cast<long long>(i),
                                 static_cast<long long>(st.cycles),
                                 static_cast<long long>(
                                     refCycles[static_cast<size_t>(i)])));
        executed++;
        nodes += static_cast<double>(tr.run.compiled.graph.size());
        cost += tr.run.mapping.cost;
        hops.push_back(std::max(tr.run.mapping.avgHops, 1e-9));
        fires += static_cast<double>(totalFires(st));
        runCycles += static_cast<double>(st.cycles);
        stallIn += static_cast<double>(st.stallNoInput);
        stallSpace += static_cast<double>(st.stallNoSpace);
        bank += static_cast<double>(st.bankConflictStalls);
        tightness.push_back(static_cast<double>(tr.run.boundCycles) /
                            static_cast<double>(st.cycles));
    }

    // Per traced request (warm-ups excluded: their ids are < 0).
    const double reqs = static_cast<double>(tracedN);
    auto self = [&](const char *name) {
        return static_cast<double>(tracer.nsFor(name, 0, tracedN, true)) /
               1e6 / reqs;
    };
    auto whole = [&](const char *name) {
        return static_cast<double>(
                   tracer.nsFor(name, 0, tracedN, false)) /
               1e6 / reqs;
    };
    double requestMs = whole("runner.request");
    double runMs = self("sim.run");
    double prefixRunNs =
        static_cast<double>(tracer.nsFor("sim.run", 0, prefix, true));
    double prepShare =
        (self("compiler.compile") + self("analysis.analyze") +
         self("mapper.map") + self("analysis.placement_lint") +
         self("analysis.bound")) /
        requestMs;
    auto per = [&](double x) { return executed > 0 ? x / executed : 0; };

    result.add("core.prepare_ms", whole("core.prepare"), "ms");
    result.add("core.execute_ms", whole("core.execute"), "ms");
    result.add("core.execute_self_ms", self("core.execute"), "ms");
    result.add("sir.parse_ms", self("sir.parse"), "ms");
    result.add("compiler.compile_ms", self("compiler.compile"), "ms");
    result.add("compiler.dfg_nodes", per(nodes), "count");
    result.add("analysis.analyze_ms", self("analysis.analyze"), "ms");
    result.add("analysis.placement_lint_ms",
               self("analysis.placement_lint"), "ms");
    result.add("analysis.bound_ms", self("analysis.bound"), "ms");
    result.add("analysis.bound_tightness", geomean(tightness), "frac");
    result.add("mapper.map_ms", self("mapper.map"), "ms");
    result.add("mapper.cost", per(cost), "cost");
    result.add("mapper.avg_hops", geomean(hops), "hops");
    result.add("sim.program_build_ms", self("sim.program_build"), "ms");
    result.add("sim.state_build_ms", self("sim.state_build"), "ms");
    result.add("sim.run_ms", runMs, "ms");
    result.add("sim.run_share", runMs / requestMs, "frac");
    result.add("sim.ns_per_fire", prefixRunNs / fires, "ns");
    result.add("sim.mcycles_per_s", runCycles / (prefixRunNs / 1e3),
               "Mcycle/s");
    result.add("sim.fires", per(fires), "count");
    result.add("sim.stall_no_input", per(stallIn), "count");
    result.add("sim.stall_no_space", per(stallSpace), "count");
    result.add("sim.bank_conflict_stalls", per(bank), "count");
    result.add("scalar.verify_ms", self("scalar.verify"), "ms");
    result.add("runner.prepared_hit_rate",
               static_cast<double>(memo.preparedHits) /
                   static_cast<double>(n),
               "frac");
    result.add("runner.map_computes", static_cast<double>(memo.mapComputes),
               "count");
    result.add("runner.dedup_rate",
               static_cast<double>(st.dedupHits) / static_cast<double>(n),
               "frac");
    result.add("runner.peak_queued", static_cast<double>(st.peakQueued),
               "count");
    result.add("runner.submit_us", submitUs / static_cast<double>(n),
               "us");
    result.add("runner.latency_p99_ms", quantile(latMs, 0.99), "ms");
    result.add("model.speedup_vs_riptide", 0, "x");
    result.add("model.energy_vs_riptide", 0, "x");
    result.add("trace.overhead_frac", overhead, "frac");
    result.add("trace.prepare_share", prepShare, "frac");

    result.attempted = n + tracedN;
    result.failed = n - ok + tracedFailed;
    meta.set("serve_jobs", s.server->threadCount())
        .set("loop", "closed, one client")
        .set("golden_rechecked", loop.goldenChecked)
        .set("untraced_requests", n)
        .set("traced_requests", tracedN)
        .set("latency_p99_samples", n)
        .set("samples_beyond_p99", n / 100)
        .set("layer_ms_unit", "per request (traced half)")
        .set("deterministic_prefix_requests", prefix)
        .set("trace_file", opts.traceOut + " (requests below the prefix)")
        .set("not_on_path", "model.* (read 0; see table1_*)")
;
    if (!opts.traceOut.empty()) {
        std::ofstream f(opts.traceOut);
        tracer.writeChromeTrace(f, prefix);
        if (!f)
            result.fail("cannot write trace " + opts.traceOut);
    }
    return result;
}

} // namespace

Result
runServe(const Options &opts, Meta &meta, bool repeat)
{
    return opts.trace ? traced(opts, repeat, meta)
                      : untraced(opts, repeat, meta);
}

} // namespace perfbench
