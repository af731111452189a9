// Service: the simulation-as-a-service core behind ptb-serve's HTTP
// routes. Owns the persistent DiskRunCache, a job table, a fixed pool of
// simulation workers, the TokenAdmission plan and the daemon's own
// StatsRegistry (exposed at /metrics via the Prometheus exposition).
//
// Execution model: submit() enqueues one job (one or more RunRequests)
// onto its tenant's FIFO and returns immediately with a job id and the
// content-address (run key) of every unit. Worker threads pick the next
// admissible unit — tenants in deterministic map order, FIFO within a
// tenant, never exceeding the tenant's TokenAdmission grant — and answer
// it through the disk cache (cached_run_payload: load on hit, simulate +
// atomic store on miss). Clients either poll GET /v1/jobs/{id} or block
// with ?wait=1 (wait()).
//
// Concurrent identical requests may both simulate (benign: the artifact
// is a pure function of the request, stores are atomic and byte-identical,
// last rename wins); the second request through the cache after the first
// completes is a hit.
//
// stop() drains gracefully: running units finish and are recorded; units
// still queued are failed with "service shutting down" so a blocked
// wait() always returns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "serve/access_log.hpp"
#include "serve/admission.hpp"
#include "serve/config_json.hpp"
#include "serve/span.hpp"
#include "sim/experiment.hpp"
#include "stats/stats.hpp"

namespace ptb::serve {

struct ServiceOptions {
  std::string cache_dir = ".ptb-cache";
  unsigned sim_workers = 2;       // --jobs: concurrent simulations
  std::uint32_t host_tokens = 2;  // --host-tokens: admission budget
  PtbPolicy admission_policy = PtbPolicy::kToAll;
  std::size_t queue_max = 256;  // queued (not yet running) units
  // --cache-max-bytes: disk-cache quota; oldest published entries are
  // evicted after each store to stay under it. 0 = unbounded.
  std::uint64_t cache_max_bytes = 0;

  // Observability. All observe-only: none of these participate in the run
  // key, and turning them off yields byte-identical artifacts (and no
  // recorder allocation, no clock reads outside the transport).
  std::size_t trace_spans = 4096;       // --trace-spans: ring capacity, 0=off
  Cycle progress_every_cycles = 5000;   // --progress-cycles: 0 = no events
  double stream_heartbeat_ms = 5000.0;  // events-stream keepalive cadence
  std::string log_file;                 // --log-file: "" = off, "-" = stderr
  LogLevel log_level = LogLevel::kInfo;  // --log-level

  // Test hook, no command-line switch: a worker that has picked a unit
  // parks before simulating it until stop() begins, so a drain test sees
  // one unit running and the rest queued however fast the simulator is.
  bool park_workers_until_stop = false;
};

class Service {
 public:
  explicit Service(ServiceOptions opts);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Outcome of a submit: the job id plus each unit's run key (hex16) —
  /// the address a client can later GET /v1/results/{key} with.
  struct Submitted {
    std::string job_id;
    std::vector<std::string> unit_keys;
  };

  /// Trace linkage carried from HTTP ingress into the job table: worker-
  /// side spans (queue wait, simulate stages) parent under the submitting
  /// request's root span. Zero-valued when tracing is off.
  struct TraceCtx {
    std::uint64_t trace_id = 0;
    std::uint32_t root_span = 0;
  };

  /// One entry of a job's event feed (progress / unit / terminal), already
  /// JSON-encoded in `data`. Sequence numbers are per-job, dense from 1.
  struct JobEvent {
    std::uint64_t seq = 0;
    std::string kind;  // "progress" | "unit" | "done" | "failed" | "aborted"
    std::string data;  // JSON object
    bool terminal = false;
  };

  enum class EventWait : std::uint8_t {
    kEvent,    // `out` holds the next event after `after_seq`
    kTimeout,  // nothing new within `timeout_ms` (stream a heartbeat)
    kGone,     // unknown job, or its feed is fully consumed and closed
  };

  /// Enqueues one job for `tenant`. False (with `err`) when the queue is
  /// full or the service is stopping — the caller answers 429/503.
  bool submit(const std::string& tenant, std::vector<RunRequest> requests,
              Submitted& out, std::string& err);
  /// As above, carrying the submitting request's trace linkage.
  bool submit(const std::string& tenant, std::vector<RunRequest> requests,
              Submitted& out, std::string& err, const TraceCtx& trace);

  /// Blocks until the job has finished (done or failed). False when the
  /// id is unknown.
  bool wait(const std::string& job_id);

  /// Job status document for GET /v1/jobs/{id} ("" when unknown).
  std::string job_status_json(const std::string& job_id);

  /// Unit payload + cache disposition for the synchronous (?wait=1)
  /// response path; valid after wait(). False when the id/index is
  /// unknown or the unit failed.
  bool unit_result(const std::string& job_id, std::size_t index,
                   std::string& payload, bool& cache_hit);

  /// GET /v1/results/{key}: straight read-through of the persistent
  /// cache (key is hex16). False on bad key, miss, or corrupt entry.
  bool result_payload(const std::string& key_hex, std::string& payload);

  /// Blocking event-feed cursor for GET /v1/jobs/{id}/events: returns the
  /// oldest retained event with seq > `after_seq`, or kTimeout after
  /// `timeout_ms` with nothing new, or kGone when the job is unknown /
  /// its terminal event has been consumed. Events are capped per job
  /// (oldest dropped); seq gaps tell the client when that happened.
  EventWait next_job_event(const std::string& job_id, std::uint64_t after_seq,
                           double timeout_ms, JobEvent& out);

  /// Prometheus text exposition of the daemon's registry (/metrics).
  std::string metrics_text();

  /// Hook for the HTTP transport: request completed in `ms`.
  void record_http_request(double ms);

  /// Hook for the HTTP transport: a streaming response completed (streams
  /// skip the latency histogram — their duration is the stream lifetime).
  void record_http_stream();

  /// Adds one observation to the per-stage latency histogram (ms). Only
  /// the pre-registered stage taxonomy is recorded; unknown names are
  /// dropped. Thread-safe.
  void record_stage(std::string_view stage, double ms);

  /// The span recorder, or nullptr when tracing is off (trace_spans == 0).
  SpanRecorder* spans() { return spans_.get(); }

  /// Snapshot of the span ring for GET /v1/trace (empty log when off).
  ServeSpanLog trace_snapshot();

  /// The structured access log (disabled unless --log-file was given).
  AccessLog& access_log() { return access_log_; }

  const ServiceOptions& options() const { return opts_; }

  /// Observability sidecar of a job for access-log enrichment: the peak
  /// admission tokens its tenant held while its units ran, and the summed
  /// per-stage durations across its units. False when the id is unknown.
  bool job_observed(const std::string& job_id, std::uint32_t& tokens_held,
                    std::vector<std::pair<std::string, double>>& stages);

  const DiskRunCache& cache() const { return cache_; }
  const TokenAdmission& admission() const { return admission_; }

  /// Graceful drain (see class comment). Idempotent.
  void stop();

 private:
  struct Unit {
    RunRequest req;
    std::uint64_t key = 0;
    // pending -> running -> done | failed
    enum class State : std::uint8_t { kPending, kRunning, kDone, kFailed };
    State state = State::kPending;
    bool cache_hit = false;
    std::string payload;  // artifact bytes (done units)
    std::string error;    // failed units
    // Observability timestamps (now_ms(); 0 when tracing is off):
    double enqueued_ms = 0.0;  // entered its tenant queue
    double blocked_ms = 0.0;   // first denied by admission (0: never)
    double picked_ms = 0.0;    // claimed by a worker
    // Per-stage durations, written by the owning worker after the unit
    // completes (while holding mu_) — feeds job_observed / access log.
    std::vector<std::pair<std::string, double>> stage_ms;
  };

  struct Job {
    std::string id;
    std::string tenant;
    std::vector<Unit> units;
    std::size_t completed = 0;  // done + failed
    // Observability: trace linkage + event feed + admission footprint.
    std::uint64_t trace_id = 0;
    std::uint32_t root_span = 0;
    std::deque<JobEvent> events;
    std::uint64_t next_event_seq = 1;
    bool terminal_emitted = false;
    std::uint32_t tokens_held_peak = 0;
    bool finished() const { return completed == units.size(); }
  };

  struct QueueRef {
    Job* job;
    std::size_t unit_index;
  };

  void worker_loop();
  /// Next admissible (tenant-fair, FIFO) unit, or {nullptr, 0}.
  QueueRef pick_unit_locked() PTB_REQUIRES(mu_);
  /// Appends to the job's bounded event feed and wakes event waiters.
  void push_event_locked(Job& job, const char* kind, std::string data,
                         bool terminal) PTB_REQUIRES(mu_);
  void register_metrics();

  const ServiceOptions opts_;
  DiskRunCache cache_;
  TokenAdmission admission_;

  Mutex mu_;
  std::condition_variable_any work_cv_;  // workers: new unit / stopping
  std::condition_variable_any done_cv_;  // waiters: a job finished
  std::condition_variable_any event_cv_;  // streamers: new job event
  std::map<std::string, std::unique_ptr<Job>> jobs_ PTB_GUARDED_BY(mu_);
  std::map<std::string, std::deque<QueueRef>> queues_ PTB_GUARDED_BY(mu_);
  std::map<std::string, std::uint32_t> running_per_tenant_
      PTB_GUARDED_BY(mu_);
  std::uint64_t next_job_id_ PTB_GUARDED_BY(mu_) = 1;
  bool stopping_ PTB_GUARDED_BY(mu_) = false;

  // Metrics sources (atomics: readable from the registry's pull lambdas
  // without touching mu_, so /metrics never contends with the scheduler).
  std::atomic<std::uint64_t> http_requests_{0};
  std::atomic<std::uint64_t> http_streams_{0};
  std::atomic<std::uint64_t> jobs_submitted_{0};
  std::atomic<std::uint64_t> units_completed_{0};
  std::atomic<std::uint64_t> units_failed_{0};
  std::atomic<std::uint64_t> queue_depth_{0};    // pending units
  std::atomic<std::uint64_t> units_running_{0};  // in-flight simulations

  Mutex metrics_mu_;  // guards histogram pushes vs /metrics snapshots
  StatsRegistry registry_;
  Histogram* latency_hist_ PTB_PT_GUARDED_BY(metrics_mu_) =
      nullptr;  // registry-owned
  // Pre-registered per-stage latency histograms (the span taxonomy);
  // registry-owned, looked up by stage name in record_stage.
  std::map<std::string, Histogram*, std::less<>> stage_hists_
      PTB_GUARDED_BY(metrics_mu_);

  // Allocated only when trace_spans > 0 — tracing off costs nothing.
  std::unique_ptr<SpanRecorder> spans_;
  AccessLog access_log_;

  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
};

}  // namespace ptb::serve
