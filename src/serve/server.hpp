// Server: the ptb-serve daemon = HTTP transport (serve/http) + routing +
// Service (serve/service). Routes:
//
//   POST /v1/run            body {"benchmark":"fft","config":{...}}
//                           async: 202 {"job","keys"}; ?wait=1: 200 with
//                           the RunArtifact payload bytes as the body and
//                           X-Ptb-Cache: hit|miss (the body is the cached
//                           artifact verbatim — byte-identical on repeat).
//   POST /v1/sweep          body {"requests":[{...},...]}; async 202 as
//                           above; ?wait=1: 200 {"job","results":[...]}
//                           with each artifact embedded verbatim.
//   GET  /v1/jobs/{id}      job status/progress document, 404 unknown.
//   GET  /v1/jobs/{id}/events  live event stream (chunked, SSE framing):
//                           progress / unit / terminal events as they
//                           happen, ": heartbeat" comments between.
//   GET  /v1/results/{key}  artifact by run key (hex16) straight from the
//                           persistent cache; 404 on miss/corrupt.
//   GET  /v1/trace          span-log snapshot (binary; ?format=json for
//                           Perfetto). 404 when --trace-spans is 0.
//   GET  /metrics           Prometheus exposition of the daemon registry.
//   GET  /healthz           {"ok":true} once the listener is up.
//
// The tenant for admission purposes is the X-Ptb-Tenant header
// ("default" when absent). handle() is exposed so the unit tests can
// exercise routing without sockets.
//
// Observability wrapper: when tracing is on, handle() mints the trace id,
// emits the per-request "request" root span (+ "parse" when transport
// timestamps are present) and answers with X-Ptb-Trace; when --log-file
// is set it appends one JSON access-log line per request.
#pragma once

#include <cstdint>
#include <string>

#include "serve/http.hpp"
#include "serve/service.hpp"

namespace ptb::serve {

class Server {
 public:
  Server(ServiceOptions service_opts, std::string listen_addr,
         std::uint16_t port, unsigned http_threads);

  /// Binds and starts serving. False (with err) when the bind fails.
  bool start(std::string& err);
  /// Graceful: stop the transport, then drain the service. Idempotent.
  void stop();

  std::uint16_t port() const { return http_.port(); }
  Service& service() { return service_; }

  /// Pure routing entry point (also the HttpServer handler), wrapped in
  /// the request-scoped observability (spans, access log).
  HttpResponse handle(const HttpRequest& req);

 private:
  /// The routes themselves; `trace` carries the request's minted trace
  /// linkage into submit() (zero-valued when tracing is off).
  HttpResponse dispatch(const HttpRequest& req,
                        const Service::TraceCtx& trace);

  Service service_;
  HttpServer http_;
};

}  // namespace ptb::serve
