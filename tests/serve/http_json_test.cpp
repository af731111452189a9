// Transport-layer parsing (serve/http.hpp) and the SimConfig JSON codec
// (serve/config_json.hpp) — everything the daemon decodes off the wire,
// exercised without sockets. The codec tests pin the strictness contract:
// unknown keys, bad enum strings and observe-only knobs reject the whole
// document, and parse(to_json(cfg)) is the identity (checked through the
// fingerprints, which cover every field the codec may touch).
#include <gtest/gtest.h>

#include <string>

#include "common/config.hpp"
#include "common/json.hpp"
#include "serve/config_json.hpp"
#include "serve/http.hpp"
#include "sim/reporting.hpp"

namespace ptb::serve {
namespace {

// --- HTTP head parsing ------------------------------------------------------

TEST(HttpHead, ParsesRequestLineQueryAndHeaders) {
  HttpRequest req;
  std::string err;
  ASSERT_TRUE(parse_http_head(
      "POST /v1/run?wait=1&x=2 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Ptb-Tenant: teamA\r\n"
      "Content-Length: 12\r\n"
      "\r\n",
      req, err))
      << err;
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/v1/run");
  EXPECT_EQ(req.query, "wait=1&x=2");
  EXPECT_EQ(req.query_param("wait"), "1");
  EXPECT_EQ(req.query_param("x"), "2");
  EXPECT_EQ(req.query_param("absent"), "");
  // Header names are lowercased on parse; lookup is by lowercase name.
  ASSERT_NE(req.header("x-ptb-tenant"), nullptr);
  EXPECT_EQ(*req.header("x-ptb-tenant"), "teamA");
  ASSERT_NE(req.header("content-length"), nullptr);
  EXPECT_EQ(*req.header("content-length"), "12");
  EXPECT_EQ(req.header("x-absent"), nullptr);
}

TEST(HttpHead, FlagStyleQueryKeyReadsAsOne) {
  HttpRequest req;
  std::string err;
  ASSERT_TRUE(
      parse_http_head("GET /v1/jobs/j00000001?wait HTTP/1.1\r\n\r\n", req,
                      err));
  EXPECT_EQ(req.path, "/v1/jobs/j00000001");
  EXPECT_EQ(req.query_param("wait"), "1");
}

TEST(HttpHead, RejectsMalformedInput) {
  HttpRequest req;
  std::string err;
  EXPECT_FALSE(parse_http_head("", req, err));
  EXPECT_FALSE(parse_http_head("GET\r\n\r\n", req, err));
  EXPECT_FALSE(parse_http_head("GET /x\r\n\r\n", req, err));  // no version
  EXPECT_FALSE(
      parse_http_head("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n", req, err));
}

TEST(HttpResponseRender, CarriesStatusLengthAndClose) {
  HttpResponse r;
  r.status = 404;
  r.body = "{\"error\":\"no\"}";
  const std::string wire = render_http_response(r);
  EXPECT_NE(wire.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 14\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - r.body.size()), r.body);
}

TEST(HttpResponseRender, StreamHeadUsesChunkedWithoutLength) {
  HttpResponse r;
  r.content_type = "text/event-stream";
  r.headers.emplace_back("Cache-Control", "no-store");
  const std::string head = render_http_stream_head(r);
  EXPECT_NE(head.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(head.find("Transfer-Encoding: chunked\r\n"), std::string::npos);
  EXPECT_NE(head.find("Cache-Control: no-store\r\n"), std::string::npos);
  EXPECT_EQ(head.find("Content-Length"), std::string::npos);
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n") << "head only, no body";
}

// --- chunked transfer decoding ----------------------------------------------

TEST(HttpDechunk, ReassemblesMultipleChunksAndIgnoresExtensions) {
  std::string out, err;
  // Sizes are hex; ";ext=1" is a legal chunk extension; trailers after the
  // terminal chunk are discarded.
  ASSERT_TRUE(http_dechunk(
      "5\r\nhello\r\n6;ext=1\r\n world\r\nB\r\n, streaming\r\n0\r\n"
      "X-Trailer: 1\r\n\r\n",
      out, err))
      << err;
  EXPECT_EQ(out, "hello world, streaming");
}

TEST(HttpDechunk, EmptyBodyIsJustTheTerminalChunk) {
  std::string out = "sentinel", err;
  ASSERT_TRUE(http_dechunk("0\r\n\r\n", out, err)) << err;
  EXPECT_TRUE(out.empty());
}

TEST(HttpDechunk, RejectsMalformedFraming) {
  std::string out, err;
  EXPECT_FALSE(http_dechunk("", out, err));            // no size line
  EXPECT_FALSE(http_dechunk("zz\r\nhi\r\n", out, err));  // bad hex
  EXPECT_FALSE(http_dechunk("5\r\nhi", out, err));     // truncated data
  EXPECT_FALSE(http_dechunk("2\r\nhiX\r\n0\r\n\r\n", out, err))
      << "chunk data must end with CRLF";
  EXPECT_FALSE(http_dechunk("5\r\nhello\r\n", out, err))
      << "missing terminal chunk";
}

// --- enum codecs ------------------------------------------------------------

TEST(EnumCodec, RoundTripsAndRejects) {
  TechniqueKind k = TechniqueKind::kNone;
  for (const char* name : {"none", "dvfs", "dfs", "two_level",
                           "thrifty_barrier", "meeting_points"}) {
    ASSERT_TRUE(parse_technique_kind(name, k)) << name;
    EXPECT_STREQ(technique_kind_name(k), name);
  }
  EXPECT_FALSE(parse_technique_kind("DVFS", k));  // strict: no case folding

  PtbPolicy p = PtbPolicy::kToAll;
  for (const char* name : {"to_all", "to_one", "dynamic"}) {
    ASSERT_TRUE(parse_ptb_policy(name, p)) << name;
    EXPECT_STREQ(ptb_policy_name(p), name);
  }
  EXPECT_FALSE(parse_ptb_policy("toall", p));
}

// --- SimConfig codec --------------------------------------------------------

SimConfig parse_or_die(const std::string& text) {
  SimConfig cfg;
  std::string err;
  EXPECT_TRUE(sim_config_from_json(text, cfg, err)) << err;
  return cfg;
}

TEST(ConfigCodec, EmptyObjectIsTableOneDefaults) {
  const SimConfig cfg = parse_or_die("{}");
  const SimConfig defaults;
  EXPECT_EQ(config_fingerprint(cfg), config_fingerprint(defaults));
  EXPECT_EQ(machine_fingerprint(cfg), machine_fingerprint(defaults));
}

TEST(ConfigCodec, OverridesApplyAndChangeTheFingerprint) {
  const SimConfig defaults;
  const SimConfig cfg = parse_or_die(
      "{\"num_cores\":8,\"technique\":\"dvfs\",\"ptb\":{\"enabled\":true,"
      "\"policy\":\"to_one\"},\"budget_fraction\":0.5,\"seed\":7,"
      "\"max_cycles\":100000}");
  EXPECT_EQ(cfg.num_cores, 8u);
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_NE(config_fingerprint(cfg), config_fingerprint(defaults));
}

TEST(ConfigCodec, CanonicalEmissionRoundTripsEveryField) {
  // Perturb one field per codec section, emit, re-parse, re-emit: the
  // fingerprints and the canonical text must both survive the loop. This
  // is the identity that makes cache addresses wire-stable.
  SimConfig cfg;
  cfg.num_cores = 8;
  cfg.seed = 11;
  cfg.technique = TechniqueKind::kTwoLevel;
  cfg.ptb.enabled = true;
  cfg.ptb.policy = PtbPolicy::kToOne;
  cfg.budget_fraction = 0.6;
  const std::string text = sim_config_to_json(cfg);
  const SimConfig back = parse_or_die(text);
  EXPECT_EQ(config_fingerprint(back), config_fingerprint(cfg));
  EXPECT_EQ(machine_fingerprint(back), machine_fingerprint(cfg));
  EXPECT_EQ(sim_config_to_json(back), text) << "emission not canonical";
}

TEST(ConfigCodec, RejectsUnknownKeysWithPositionedError) {
  SimConfig cfg;
  std::string err;
  // The classic typo the strictness exists for: silently ignoring
  // "num_core" would simulate (and cache!) the wrong machine.
  EXPECT_FALSE(sim_config_from_json("{\"num_core\":8}", cfg, err));
  EXPECT_NE(err.find("num_core"), std::string::npos) << err;
}

TEST(ConfigCodec, RejectsObserveOnlyKnobs) {
  SimConfig cfg;
  std::string err;
  for (const char* knob : {"audit_level", "trace"}) {
    const std::string body = std::string("{\"") + knob + "\":1}";
    EXPECT_FALSE(sim_config_from_json(body, cfg, err)) << knob;
    EXPECT_NE(err.find("observe-only"), std::string::npos) << err;
  }
  // Not a SimConfig field: rejected as an unknown key.
  EXPECT_FALSE(sim_config_from_json("{\"sim_threads\":1}", cfg, err));
  EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
}

TEST(ConfigCodec, RejectsOutOfDomainValues) {
  SimConfig cfg;
  std::string err;
  EXPECT_FALSE(sim_config_from_json("{\"num_cores\":0}", cfg, err));
  // One past the directory's sharer-bitmask cap: must be a clean error,
  // not the directory's constructor assert.
  EXPECT_FALSE(sim_config_from_json("{\"num_cores\":33}", cfg, err));
  EXPECT_NE(err.find("num_cores"), std::string::npos) << err;
  EXPECT_TRUE(sim_config_from_json("{\"num_cores\":32}", cfg, err)) << err;
  EXPECT_FALSE(sim_config_from_json("{\"budget_fraction\":0.0}", cfg, err));
  EXPECT_FALSE(sim_config_from_json("{\"budget_fraction\":1.5}", cfg, err));
  EXPECT_FALSE(
      sim_config_from_json("{\"technique\":\"warp_drive\"}", cfg, err));
  EXPECT_NE(err.find("technique"), std::string::npos) << err;
}

// --- run / sweep request parsing --------------------------------------------

json::Value parse_doc(const std::string& text) {
  json::Value doc;
  std::string err;
  EXPECT_TRUE(json::parse(text, doc, err)) << err;
  return doc;
}

TEST(RunRequestParse, AcceptsSuiteBenchmarkWithDefaults) {
  RunRequest req;
  std::string err;
  ASSERT_TRUE(
      parse_run_request(parse_doc("{\"benchmark\":\"fft\"}"), req, err))
      << err;
  EXPECT_EQ(req.benchmark, "fft");
  EXPECT_EQ(config_fingerprint(req.config),
            config_fingerprint(SimConfig{}));
}

TEST(RunRequestParse, RejectsUnknownBenchmark) {
  // benchmark_by_name aborts on unknown names — the codec must catch this
  // at parse time so a bad request can never take the daemon down.
  RunRequest req;
  std::string err;
  EXPECT_FALSE(parse_run_request(
      parse_doc("{\"benchmark\":\"no_such_bench\"}"), req, err));
  EXPECT_NE(err.find("no_such_bench"), std::string::npos) << err;
}

TEST(RunRequestParse, RejectsMissingBenchmarkAndBadConfig) {
  RunRequest req;
  std::string err;
  EXPECT_FALSE(parse_run_request(parse_doc("{}"), req, err));
  EXPECT_FALSE(parse_run_request(
      parse_doc("{\"benchmark\":\"fft\",\"config\":{\"bogus\":1}}"), req,
      err));
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
}

TEST(SweepRequestParse, ParsesRequestListAndPositionsErrors) {
  std::vector<RunRequest> reqs;
  std::string err;
  ASSERT_TRUE(parse_sweep_request(
      parse_doc("{\"requests\":[{\"benchmark\":\"fft\"},"
                "{\"benchmark\":\"radix\"}]}"),
      reqs, err))
      << err;
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].benchmark, "fft");
  EXPECT_EQ(reqs[1].benchmark, "radix");

  reqs.clear();
  EXPECT_FALSE(parse_sweep_request(parse_doc("{\"requests\":[]}"), reqs,
                                   err));
  EXPECT_FALSE(parse_sweep_request(
      parse_doc("{\"requests\":[{\"benchmark\":\"fft\"},"
                "{\"benchmark\":\"nope\"}]}"),
      reqs, err));
  // Errors name the failing entry so a sweep client can fix the right one.
  EXPECT_NE(err.find("requests[1]"), std::string::npos) << err;
}

}  // namespace
}  // namespace ptb::serve
