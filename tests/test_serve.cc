/**
 * @file
 * The serve daemon (runner/serve.hh): request parsing, response
 * stitching, dedup, admission control, the watchdog/deadlock status
 * distinction, and the JSON parser underneath it all.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/serve.hh"
#include "trace/json_parse.hh"

using namespace pipestitch;
using runner::ServeOptions;
using runner::ServeServer;
using trace::JsonValue;

namespace {

/** A minimal valid request body around kernels/vector_scale.sir's
 *  shape, with n and x inline. */
std::string
scaleRequest(const std::string &id, int mulBy)
{
    std::ostringstream os;
    os << "{\"id\":\"" << id << "\",\"sir\":\""
       << "program scale\\n"
       << "array x 4\\narray y 4\\nlivein n\\n\\n"
       << "foreach i = 0 .. n:\\n"
       << "  v = load x[i]\\n"
       << "  s = mul v " << mulBy << "\\n"
       << "  store y[i] = s\\nend\\n"
       << "\",\"liveins\":{\"n\":4},"
       << "\"init\":{\"x\":[1,2,3,4]}}";
    return os.str();
}

/** A while-loop that never terminates: exercises the watchdog. */
std::string
spinRequest(const std::string &id, int64_t maxCycles)
{
    std::ostringstream os;
    os << "{\"id\":\"" << id << "\",\"sir\":\""
       << "program spin\\n"
       << "array out 1\\nlivein n\\n\\n"
       << "foreach i = 0 .. n:\\n"
       << "  c = const 1\\n"
       << "  while:\\n"
       << "    big = gt c 0\\n"
       << "  cond big\\n"
       << "  do:\\n"
       << "    c = add c 1\\n"
       << "  end\\n"
       << "  store out[0] = c\\nend\\n"
       << "\",\"liveins\":{\"n\":1},"
       << "\"verify\":false,"
       << "\"max_cycles\":" << maxCycles << "}";
    return os.str();
}

/** Parse a rendered response line and return the DOM. */
JsonValue
parseResponse(const std::string &line)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(trace::parseJson(line, v, &err)) << err << ": "
                                                 << line;
    EXPECT_TRUE(v.isObject()) << line;
    return v;
}

std::string
field(const JsonValue &v, const std::string &key)
{
    const JsonValue *f = v.find(key);
    return f ? f->asString() : "";
}

ServeOptions
withJobs(int jobs)
{
    ServeOptions opts;
    opts.jobs = jobs;
    return opts;
}

} // namespace

TEST(JsonParse, ValuesRoundTrip)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(trace::parseJson(
        "{\"a\":1,\"b\":-2.5e2,\"c\":\"x\\ny\\u0041\",\"d\":true,"
        "\"e\":null,\"f\":[1,2,[3]],\"a\":7}",
        v, &err))
        << err;
    EXPECT_EQ(v.find("a")->asInt(), 7) << "last duplicate wins";
    EXPECT_DOUBLE_EQ(v.find("b")->asDouble(), -250.0);
    EXPECT_EQ(v.find("c")->asString(), "x\nyA");
    EXPECT_TRUE(v.find("d")->asBool());
    EXPECT_TRUE(v.find("e")->isNull());
    ASSERT_TRUE(v.find("f")->isArray());
    EXPECT_EQ(v.find("f")->elems.size(), 3u);
    EXPECT_EQ(v.find("f")->elems[2].elems[0].asInt(), 3);
}

TEST(JsonParse, SurrogatePairBecomesUtf8)
{
    JsonValue v;
    ASSERT_TRUE(trace::parseJson("\"\\uD83D\\uDE00\"", v, nullptr));
    EXPECT_EQ(v.asString(), "\xF0\x9F\x98\x80");
}

TEST(JsonParse, ErrorsCarryOffsets)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(trace::parseJson("{\"a\":}", v, &err));
    EXPECT_NE(err.find("offset"), std::string::npos) << err;
    EXPECT_FALSE(trace::parseJson("[1,2] trailing", v, &err));
    EXPECT_FALSE(trace::parseJson("", v, &err));
    EXPECT_FALSE(trace::parseJson("{\"a\":1", v, &err));
    // Deep nesting is rejected, not a stack overflow.
    std::string deep(100, '[');
    EXPECT_FALSE(trace::parseJson(deep, v, &err));
}

TEST(Serve, GoodRequestRunsAndStitchesId)
{
    ServeServer server(withJobs(2));
    auto resp = server.submit(scaleRequest("req-1", 3));
    std::string line = ServeServer::render(resp);
    JsonValue v = parseResponse(line);
    EXPECT_EQ(field(v, "id"), "req-1");
    EXPECT_EQ(field(v, "status"), "ok");
    EXPECT_EQ(field(v, "kernel"), "scale");
    EXPECT_GT(v.find("cycles")->asInt(), 0);
    EXPECT_FALSE(field(v, "mem_hash").empty());
}

TEST(Serve, BadJsonAnswersImmediatelyAndServerSurvives)
{
    ServeServer server(withJobs(1));
    auto bad = server.submit("{this is not json");
    JsonValue v = parseResponse(ServeServer::render(bad));
    EXPECT_EQ(field(v, "status"), "error");
    EXPECT_NE(field(v, "error").find("bad JSON"),
              std::string::npos);

    // A fatal() inside the SIR parser must become a response too.
    auto badSir = server.submit(
        "{\"id\":\"x\",\"sir\":\"program broken\\nthis is not "
        "sir\\n\"}");
    JsonValue v2 = parseResponse(ServeServer::render(badSir));
    EXPECT_EQ(field(v2, "id"), "x");
    EXPECT_EQ(field(v2, "status"), "error");

    auto badVariant = server.submit(
        "{\"id\":\"y\",\"sir\":\"\",\"variant\":\"vliw\"}");
    JsonValue v3 = parseResponse(ServeServer::render(badVariant));
    EXPECT_EQ(field(v3, "status"), "error");
    EXPECT_NE(field(v3, "error").find("variant"),
              std::string::npos);

    EXPECT_EQ(server.stats().badRequests, 3);

    // ...and the server still executes real work afterwards.
    auto good = server.submit(scaleRequest("z", 2));
    JsonValue v4 = parseResponse(ServeServer::render(good));
    EXPECT_EQ(field(v4, "status"), "ok");
}

TEST(Serve, ContentIdenticalRequestsShareOneExecution)
{
    ServeServer server(withJobs(2));
    auto a = server.submit(scaleRequest("a", 5));
    auto b = server.submit(scaleRequest("b", 5)); // same content
    auto c = server.submit(scaleRequest("c", 6)); // different

    EXPECT_EQ(ServeServer::render(a).substr(10),
              ServeServer::render(b).substr(10))
        << "identical payload after the distinct ids";
    JsonValue vc = parseResponse(ServeServer::render(c));
    EXPECT_EQ(field(vc, "status"), "ok");

    auto st = server.stats();
    EXPECT_EQ(st.received, 3);
    EXPECT_EQ(st.dedupHits, 1);
    EXPECT_EQ(st.accepted, 2) << "the dedup hit cost no slot";
}

TEST(Serve, WatchdogIsNotReportedAsDeadlock)
{
    ServeServer server(withJobs(1));
    auto resp = server.submit(spinRequest("w", 3000));
    JsonValue v = parseResponse(ServeServer::render(resp));
    EXPECT_EQ(field(v, "status"), "watchdog")
        << ServeServer::render(resp);
}

TEST(Serve, AdmissionControlRejectsButNeverRejectsDuplicates)
{
    // One worker, queue bound 1: the long-running spin occupies the
    // only slot, so a *distinct* second request must be rejected —
    // but a duplicate of the in-flight request shares its execution
    // and must never bounce off the full queue.
    ServeOptions opts;
    opts.jobs = 1;
    opts.maxQueue = 1;
    ServeServer server(opts);
    auto slow = server.submit(spinRequest("s1", 2000000));
    auto dup = server.submit(spinRequest("s2", 2000000));
    auto bounced = server.submit(scaleRequest("s3", 2));

    JsonValue v = parseResponse(ServeServer::render(bounced));
    EXPECT_EQ(field(v, "status"), "rejected");
    EXPECT_NE(field(v, "error").find("queue full"),
              std::string::npos);

    auto st = server.stats();
    EXPECT_EQ(st.rejected, 1);
    EXPECT_EQ(st.dedupHits, 1);

    JsonValue vs = parseResponse(ServeServer::render(slow));
    EXPECT_EQ(field(vs, "status"), "watchdog");
    EXPECT_EQ(ServeServer::render(dup).substr(10),
              ServeServer::render(slow).substr(10));
}

TEST(Serve, TraceFileRequestWritesChromeTrace)
{
    namespace fs = std::filesystem;
    fs::path dir =
        fs::temp_directory_path() / "ps_serve_trace_test";
    fs::create_directories(dir);
    fs::path trace = dir / "out.trace.json";
    fs::remove(trace);

    ServeServer server(withJobs(1));
    std::string req = scaleRequest("t", 3);
    req.insert(req.size() - 1, ",\"trace_file\":\"" +
                                   trace.string() + "\"");
    JsonValue v =
        parseResponse(ServeServer::render(server.submit(req)));
    EXPECT_EQ(field(v, "status"), "ok");
    EXPECT_EQ(field(v, "trace_file"), trace.string());

    std::ifstream f(trace);
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    JsonValue t;
    std::string err;
    EXPECT_TRUE(trace::parseJson(ss.str(), t, &err)) << err;
    fs::remove_all(dir);
}

TEST(Serve, ParallelSchedulerMatchesDenseAndRejectsTracing)
{
    ServeServer server(withJobs(1));

    // scheduler:"parallel" must run and agree bit-for-bit with a
    // dense-scheduler run of the same kernel (cycles + mem hash).
    std::string par = scaleRequest("p", 3);
    par.insert(par.size() - 1, ",\"scheduler\":\"parallel\"");
    JsonValue vp =
        parseResponse(ServeServer::render(server.submit(par)));
    EXPECT_EQ(field(vp, "status"), "ok") << field(vp, "error");

    std::string rdy = scaleRequest("r", 3);
    rdy.insert(rdy.size() - 1, ",\"scheduler\":\"dense\"");
    JsonValue vr =
        parseResponse(ServeServer::render(server.submit(rdy)));
    EXPECT_EQ(field(vr, "status"), "ok");
    EXPECT_EQ(vp.find("cycles")->asInt(),
              vr.find("cycles")->asInt());
    EXPECT_EQ(field(vp, "mem_hash"), field(vr, "mem_hash"));

    // trace_file needs an observed run; combining it with the
    // parallel engine is a structured error up front, never a
    // silent fallback to another scheduler.
    std::string bad = scaleRequest("b", 3);
    bad.insert(bad.size() - 1,
               ",\"scheduler\":\"parallel\","
               "\"trace_file\":\"/tmp/ps_never_written.json\"");
    JsonValue vb =
        parseResponse(ServeServer::render(server.submit(bad)));
    EXPECT_EQ(field(vb, "status"), "error");
    EXPECT_NE(field(vb, "error").find("trace_file"),
              std::string::npos)
        << field(vb, "error");
    EXPECT_NE(field(vb, "error").find("dense scheduler"),
              std::string::npos)
        << field(vb, "error");

    // Unknown scheduler names bounce with the offending name; the
    // removed ready-list scheduler is one of them.
    for (const char *name : {"magic", "ready"}) {
        std::string unk = scaleRequest("u", 3);
        unk.insert(unk.size() - 1,
                   std::string(",\"scheduler\":\"") + name + "\"");
        JsonValue vu =
            parseResponse(ServeServer::render(server.submit(unk)));
        EXPECT_EQ(field(vu, "status"), "error");
        EXPECT_NE(field(vu, "error").find(std::string("'") + name +
                                          "'"),
                  std::string::npos)
            << field(vu, "error");
        EXPECT_NE(field(vu, "error").find("expected dense or parallel"),
                  std::string::npos)
            << field(vu, "error");
    }
}

namespace {

/**
 * Pump one request per entry of @p badFields (each a JSON member
 * list spliced into a valid request) through the serve loop, then a
 * valid request carrying @p goodFields. Every bad request must come
 * back as a structured error naming @p name, and the good one queued
 * after them must still run.
 */
void
expectRangeRejected(const std::string &name,
                    const std::vector<std::string> &badFields,
                    const std::string &goodFields)
{
    ServeServer server(withJobs(1));
    std::string input;
    for (size_t i = 0; i < badFields.size(); i++) {
        std::string req = scaleRequest("bad" + std::to_string(i), 3);
        req.insert(req.size() - 1, "," + badFields[i]);
        input += req + "\n";
    }
    std::string good = scaleRequest("good", 3);
    good.insert(good.size() - 1, "," + goodFields);
    input += good + "\n";

    std::istringstream in(input);
    std::ostringstream out;
    EXPECT_EQ(runner::serveLoop(server, in, out), 0);
    std::istringstream lines(out.str());
    std::string line;
    std::vector<JsonValue> responses;
    while (std::getline(lines, line))
        responses.push_back(parseResponse(line));
    ASSERT_EQ(responses.size(), badFields.size() + 1) << out.str();
    for (size_t i = 0; i < badFields.size(); i++) {
        EXPECT_EQ(field(responses[i], "status"), "error")
            << badFields[i];
        EXPECT_NE(field(responses[i], "error").find(name),
                  std::string::npos)
            << badFields[i] << ": " << field(responses[i], "error");
    }
    EXPECT_EQ(field(responses.back(), "id"), "good");
    EXPECT_EQ(field(responses.back(), "status"), "ok")
        << field(responses.back(), "error");
}

} // namespace

TEST(ServeRanges, DepthOutsideRangeIsAnErrorNotAnAbort)
{
    expectRangeRejected("depth",
                        {"\"depth\":0", "\"depth\":-3",
                         "\"depth\":257", "\"depth\":100000000",
                         "\"depth\":1e300", "\"depth\":\"4\"",
                         "\"depth\":2.5"},
                        "\"depth\":256");
}

TEST(ServeRanges, UnrollOutsideRangeIsAnErrorNotAnAbort)
{
    expectRangeRejected("unroll",
                        {"\"unroll\":3", "\"unroll\":0",
                         "\"unroll\":-2", "\"unroll\":128",
                         "\"unroll\":2.5"},
                        "\"unroll\":2");
}

TEST(ServeRanges, TilesOutsideRangeIsAnErrorNotAnAbort)
{
    expectRangeRejected("tiles",
                        {"\"tiles\":\"1000x1000\"",
                         "\"tiles\":\"9x1\"", "\"tiles\":\"0x2\""},
                        "\"tiles\":\"1x2\"");
}

TEST(ServeRanges, BatchOutsideRangeIsAnErrorNotAnAbort)
{
    expectRangeRejected("batch",
                        {"\"batch\":100000000", "\"batch\":0",
                         "\"batch\":257", "\"batch\":2.5"},
                        "\"batch\":2");
}

TEST(Serve, TraceWithoutSchedulerRunsTheObservedOracle)
{
    // ParallelRegions is the default scheduler, but a traced request
    // that names no scheduler must not be refused: its observed run
    // takes the DenseScan oracle, whose results equal the default
    // engine's untraced ones.
    namespace fs = std::filesystem;
    fs::path dir =
        fs::temp_directory_path() / "ps_serve_default_trace_test";
    fs::create_directories(dir);
    fs::path trace = dir / "default.trace.json";
    fs::remove(trace);

    ServeServer server(withJobs(1));
    std::string traced = scaleRequest("t", 5);
    ASSERT_EQ(traced.find("scheduler"), std::string::npos);
    traced.insert(traced.size() - 1, ",\"trace_file\":\"" +
                                         trace.string() + "\"");
    JsonValue vt =
        parseResponse(ServeServer::render(server.submit(traced)));
    EXPECT_EQ(field(vt, "status"), "ok") << field(vt, "error");
    EXPECT_TRUE(fs::exists(trace));

    JsonValue vd = parseResponse(
        ServeServer::render(server.submit(scaleRequest("d", 5))));
    EXPECT_EQ(field(vd, "status"), "ok");
    EXPECT_EQ(vt.find("cycles")->asInt(), vd.find("cycles")->asInt());
    EXPECT_EQ(field(vt, "mem_hash"), field(vd, "mem_hash"));
    fs::remove_all(dir);
}

TEST(Serve, LoopPumpsRequestsInSubmissionOrder)
{
    ServeServer server(withJobs(2));
    std::istringstream in(scaleRequest("one", 2) + "\n\n" +
                          scaleRequest("two", 3) + "\n" +
                          "not json\n");
    std::ostringstream out;
    EXPECT_EQ(runner::serveLoop(server, in, out), 0);

    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> ids;
    while (std::getline(lines, line))
        ids.push_back(field(parseResponse(line), "id"));
    ASSERT_EQ(ids.size(), 3u) << out.str();
    EXPECT_EQ(ids[0], "one");
    EXPECT_EQ(ids[1], "two");
    EXPECT_EQ(ids[2], "");
}

TEST(Serve, BenchReportsDedupAndLatency)
{
    runner::ServeBenchOptions bopts;
    bopts.requests = 48;
    bopts.unique = 8;
    ServeOptions sopts;
    sopts.jobs = 2;
    std::string json = runServeBench(sopts, bopts);
    JsonValue v = parseResponse(json);
    EXPECT_EQ(v.find("requests")->asInt(), 48);
    EXPECT_EQ(v.find("ok")->asInt(), 48) << json;
    EXPECT_EQ(v.find("failed")->asInt(), 0) << json;
    EXPECT_EQ(v.find("accepted")->asInt(), 8);
    EXPECT_EQ(v.find("dedup_hits")->asInt(), 40);
    EXPECT_GT(v.find("rps")->asDouble(), 0.0);
    EXPECT_GE(v.find("p99_ms")->asDouble(),
              v.find("p50_ms")->asDouble());
}
