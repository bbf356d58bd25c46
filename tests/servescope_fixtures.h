// Small hand-written inputs for the servescope CLI tests and the reader fuzz
// test: one valid document per schema the reader accepts, each touching
// every section its subcommands render.
#pragma once

#include <string>

namespace fixtures {

/// servescope-telemetry-v1 export with series, stage counters, a one-bucket
/// latency histogram (le 2 ms, observed 1.0..1.2 ms), alerts, fleet health,
/// a capacity section, a benchmark row and a shape check.
inline const std::string kTelemetry = R"({
  "schema": "servescope-telemetry-v1",
  "context": {"figure": "fixture", "build_type": "release"},
  "benchmarks": [
    {"name": "run/a", "real_time": 10.0, "time_unit": "ms", "tput_img_s": 100.0}
  ],
  "instruments": [
    {"kind": "counter", "name": "serving_requests_completed_total", "labels": {}, "value": 10},
    {"kind": "counter", "name": "serving_stage_seconds_total",
     "labels": {"stage": "queue"}, "value": 0.002},
    {"kind": "counter", "name": "serving_stage_seconds_total",
     "labels": {"stage": "inference"}, "value": 0.006},
    {"kind": "histogram", "name": "serving_request_latency_seconds", "labels": {},
     "count": 10, "sum": 0.011, "min": 0.001, "max": 0.0012,
     "buckets": [{"le": 0.002, "count": 10}]},
    {"kind": "counter", "name": "obs_alerts_fired_total",
     "labels": {"alert": "slo-burn-rate"}, "value": 1},
    {"kind": "gauge", "name": "fleet_node_health_score", "labels": {"node": "0"}, "value": 0.9}
  ],
  "series": {"period_s": 0.1, "points": [
    {"name": "serving_requests_completed_total", "labels": {}, "samples": [0, 2, 5, 10]},
    {"name": "serving_queue_depth", "labels": {}, "samples": [1, 2, 3, 4]}
  ]},
  "capacity": {"period_s": 0.1,
    "resources": [{"device": "gpu0", "engine": "compute", "capacity": 1,
                   "busy_frac": [0.2, 0.95, 0.5], "queue_mean": [0, 1.5, 0.2]}],
    "segments": [{"begin": 0, "end": 3, "resource": "gpu0.compute"}],
    "little_l": [1, 2, 3], "little_lambda_w": [1, 2, 3], "violation_intervals": [1],
    "sustainable_rps": 120.5, "binding": "gpu0.compute", "binding_stage": "inference"},
  "checks": [{"claim": "fixture holds", "pass": true}]
}
)";

/// Valid telemetry with nothing recorded: an empty capacity section, a zero
/// period and an empty latency histogram.
inline const std::string kDegenerate = R"({
  "schema": "servescope-telemetry-v1",
  "context": {"build_type": "Release"},
  "benchmarks": [],
  "instruments": [
    {"kind": "histogram", "name": "serving_request_latency_seconds",
     "labels": {}, "count": 0, "sum": 0.0, "buckets": []}
  ],
  "series": [],
  "capacity": {"period_s": 0.0, "resources": [], "segments": [],
    "little_l": [], "little_lambda_w": [], "violation_intervals": [],
    "sustainable_rps": 0.0, "binding": "idle", "binding_stage": "ingest"}
}
)";

/// Chrome trace with one causal trace: a root span and one child.
inline const std::string kTrace = R"({"traceEvents": [
  {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1, "args": {"name": "req.1"}},
  {"ph": "X", "name": "request", "pid": 1, "tid": 1, "ts": 0, "dur": 10,
   "args": {"trace_id": "1", "span_id": "1", "parent_span_id": "0"}},
  {"ph": "X", "name": "inference", "pid": 1, "tid": 1, "ts": 2, "dur": 8,
   "args": {"trace_id": "1", "span_id": "2", "parent_span_id": "1"}}
]}
)";

/// google-benchmark JSON: one row plus a repetition aggregate the reader skips.
inline const std::string kBenchmark = R"({
  "context": {"library_build_type": "release", "build_type": "release"},
  "benchmarks": [
    {"name": "BM_A", "real_time": 100.0, "time_unit": "ns"},
    {"name": "BM_A_mean", "real_time": 1.0, "time_unit": "ns"}
  ]
}
)";

/// `doc` with the first occurrence of `from` replaced by `to`.
inline std::string with(std::string doc, const std::string& from, const std::string& to) {
  doc.replace(doc.find(from), from.size(), to);
  return doc;
}

}  // namespace fixtures
