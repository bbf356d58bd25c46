#include "serving/config_file.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "metrics/export.h"

namespace serve::serving {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void fail(int line_no, const std::string& msg) {
  throw std::invalid_argument("server config line " + std::to_string(line_no) + ": " + msg);
}

bool parse_bool(int line_no, const std::string& key, const std::string& v) {
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  fail(line_no, "bad boolean for '" + key + "': " + v);
}

int parse_int(int line_no, const std::string& key, const std::string& v, int min_value,
              int max_value = std::numeric_limits<int>::max()) {
  std::size_t used = 0;
  int out = 0;
  try {
    out = std::stoi(v, &used);
  } catch (const std::exception&) {
    fail(line_no, "bad integer for '" + key + "': " + v);
  }
  if (used != v.size()) fail(line_no, "trailing junk for '" + key + "': " + v);
  if (out < min_value || out > max_value) {
    fail(line_no, "'" + key + "' = " + v + " out of range [" + std::to_string(min_value) + ", " +
                      (max_value == std::numeric_limits<int>::max() ? std::string("inf")
                                                                    : std::to_string(max_value)) +
                      "]");
  }
  return out;
}

double parse_double(int line_no, const std::string& key, const std::string& v, double min_value,
                    double max_value) {
  std::size_t used = 0;
  double out = 0.0;
  try {
    out = std::stod(v, &used);
  } catch (const std::exception&) {
    fail(line_no, "bad number for '" + key + "': " + v);
  }
  if (used != v.size()) fail(line_no, "trailing junk for '" + key + "': " + v);
  if (!(out >= min_value && out <= max_value)) {
    fail(line_no, "'" + key + "' = " + v + " out of range [" + std::to_string(min_value) + ", " +
                      std::to_string(max_value) + "]");
  }
  return out;
}

/// A duration key: whole `unit_ns` units, read as 64-bit so every value the
/// formatter writes (any sim::Time) parses back.
sim::Time parse_duration(int line_no, const std::string& key, const std::string& v,
                         long long min_value, sim::Time unit_ns) {
  const long long max_value = std::numeric_limits<sim::Time>::max() / unit_ns;
  std::size_t used = 0;
  long long out = 0;
  try {
    out = std::stoll(v, &used);
  } catch (const std::exception&) {
    fail(line_no, "bad integer for '" + key + "': " + v);
  }
  if (used != v.size()) fail(line_no, "trailing junk for '" + key + "': " + v);
  if (out < min_value || out > max_value) {
    fail(line_no, "'" + key + "' = " + v + " out of range [" + std::to_string(min_value) + ", " +
                      std::to_string(max_value) + "]");
  }
  return out * unit_ns;
}
sim::Time parse_ms(int line_no, const std::string& key, const std::string& v, long long min_value) {
  return parse_duration(line_no, key, v, min_value, 1'000'000);
}
sim::Time parse_us(int line_no, const std::string& key, const std::string& v, long long min_value) {
  return parse_duration(line_no, key, v, min_value, 1'000);
}

/// Whole milliseconds / microseconds in `t`. Durations are read back as
/// integers, so they must not go through the stream's six-digit float form
/// (1800000 ms would print as 1.8e+06 and fail to parse).
long long whole_ms(sim::Time t) { return static_cast<long long>(t / 1'000'000); }
long long whole_us(sim::Time t) { return static_cast<long long>(t / 1'000); }

/// Seconds stored, microseconds written: 15 significant digits is what
/// survives the x1e6 / x1e-6 scaling, so format -> parse -> format reaches
/// a fixed point (the value itself may move by an ulp).
std::string micros(double seconds) {
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof buf, seconds * 1e6, std::chars_format::general, 15);
  return {buf, res.ptr};
}

}  // namespace

ServerConfig parse_server_config(const std::string& text) {
  ServerConfig cfg;
  bool have_model = false;
  std::istringstream in{text};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) fail(line_no, "expected key = value");
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty() || value.empty()) fail(line_no, "empty key or value");

    if (key == "model") {
      try {
        cfg.model = models::find_model(value);
      } catch (const std::out_of_range&) {
        throw std::out_of_range("server config line " + std::to_string(line_no) +
                                ": unknown model '" + value + "'");
      }
      have_model = true;
    } else if (key == "backend") {
      if (value == "tensorrt") {
        cfg.backend = models::Backend::kTensorRT;
      } else if (value == "onnxruntime") {
        cfg.backend = models::Backend::kOnnxRuntime;
      } else if (value == "pytorch") {
        cfg.backend = models::Backend::kPyTorch;
      } else {
        fail(line_no, "unknown backend '" + value + "'");
      }
    } else if (key == "preprocessing") {
      if (value == "cpu") {
        cfg.preproc = PreprocDevice::kCpu;
      } else if (value == "gpu") {
        cfg.preproc = PreprocDevice::kGpu;
      } else {
        fail(line_no, "unknown preprocessing device '" + value + "'");
      }
    } else if (key == "mode") {
      if (value == "end_to_end") {
        cfg.mode = PipelineMode::kEndToEnd;
      } else if (value == "preprocess_only") {
        cfg.mode = PipelineMode::kPreprocessOnly;
      } else if (value == "inference_only") {
        cfg.mode = PipelineMode::kInferenceOnly;
      } else {
        fail(line_no, "unknown pipeline mode '" + value + "'");
      }
    } else if (key == "ingress") {
      if (value == "jpeg") {
        cfg.ingress = IngressFormat::kCompressedImage;
      } else if (value == "tensor") {
        cfg.ingress = IngressFormat::kRawTensor;
      } else {
        fail(line_no, "unknown ingress format '" + value + "'");
      }
    } else if (key == "ingress_cache") {
      cfg.ingress_cache.enabled = parse_bool(line_no, key, value);
    } else if (key == "ingress_cache_image_mb") {
      cfg.ingress_cache.image_budget_bytes =
          static_cast<std::int64_t>(parse_int(line_no, key, value, 0)) << 20;
    } else if (key == "ingress_cache_tensor_mb") {
      cfg.ingress_cache.tensor_budget_bytes =
          static_cast<std::int64_t>(parse_int(line_no, key, value, 0)) << 20;
    } else if (key == "ingress_cache_lookup_us") {
      cfg.ingress_cache.lookup_s = parse_double(line_no, key, value, 0.0, 1e6) * 1e-6;
    } else if (key == "dynamic_batching") {
      cfg.dynamic_batching = parse_bool(line_no, key, value);
    } else if (key == "max_batch") {
      cfg.max_batch = parse_int(line_no, key, value, 0);
    } else if (key == "instance_count") {
      cfg.instance_count = parse_int(line_no, key, value, 1);
    } else if (key == "fixed_batch") {
      cfg.fixed_batch = parse_int(line_no, key, value, 1);
    } else if (key == "max_queue_delay_us") {
      cfg.max_queue_delay = parse_us(line_no, key, value, 0);
    } else if (key == "shed_deadline_ms") {
      cfg.shed_deadline = parse_ms(line_no, key, value, 0);
    } else if (key == "audit") {
      cfg.audit = parse_bool(line_no, key, value);
    } else if (key == "validate_payloads") {
      cfg.validate_payloads = parse_bool(line_no, key, value);
    } else if (key == "retry") {
      cfg.retry.enabled = parse_bool(line_no, key, value);
    } else if (key == "retry_max_attempts") {
      cfg.retry.max_attempts = parse_int(line_no, key, value, 1);
    } else if (key == "retry_timeout_ms") {
      cfg.retry.timeout = parse_ms(line_no, key, value, 0);
    } else if (key == "retry_backoff_base_ms") {
      cfg.retry.backoff_base = parse_ms(line_no, key, value, 0);
    } else if (key == "retry_backoff_cap_ms") {
      cfg.retry.backoff_cap = parse_ms(line_no, key, value, 0);
    } else if (key == "retry_budget") {
      cfg.retry.retry_budget = parse_double(line_no, key, value, 0.0, 1e9);
    } else if (key == "retry_budget_refill") {
      cfg.retry.budget_refill_per_success = parse_double(line_no, key, value, 0.0, 1e9);
    } else if (key == "circuit_breaker") {
      cfg.breaker.enabled = parse_bool(line_no, key, value);
    } else if (key == "breaker_queue_depth") {
      cfg.breaker.queue_depth_open = parse_int(line_no, key, value, 1);
    } else if (key == "breaker_error_rate") {
      cfg.breaker.error_rate_open = parse_double(line_no, key, value, 0.0, 1.0);
    } else if (key == "breaker_open_ms") {
      cfg.breaker.open_duration = parse_ms(line_no, key, value, 0);
    } else if (key == "breaker_half_open_probes") {
      cfg.breaker.half_open_probes = parse_int(line_no, key, value, 1);
    } else if (key == "degrade") {
      cfg.degrade.enabled = parse_bool(line_no, key, value);
    } else if (key == "degrade_hysteresis_ms") {
      cfg.degrade.hysteresis = parse_ms(line_no, key, value, 0);
    } else if (key == "broker_publish") {
      cfg.broker_publish.publish_results = parse_bool(line_no, key, value);
    } else if (key == "broker_retry") {
      cfg.broker_publish.retry_enabled = parse_bool(line_no, key, value);
    } else if (key == "broker_max_attempts") {
      cfg.broker_publish.max_attempts = parse_int(line_no, key, value, 1);
    } else if (key == "broker_backoff_ms") {
      cfg.broker_publish.backoff_base = parse_ms(line_no, key, value, 0);
    } else if (key == "broker_poll_ms") {
      cfg.broker_publish.poll_interval = parse_ms(line_no, key, value, 0);
    } else if (key == "balancer_policy") {
      if (value == "round_robin") {
        cfg.balancer.policy = BalancerPolicy::kRoundRobin;
      } else if (value == "random") {
        cfg.balancer.policy = BalancerPolicy::kRandom;
      } else if (value == "least_outstanding") {
        cfg.balancer.policy = BalancerPolicy::kLeastOutstanding;
      } else if (value == "p2c") {
        cfg.balancer.policy = BalancerPolicy::kPowerOfTwo;
      } else if (value == "latency_weighted") {
        cfg.balancer.policy = BalancerPolicy::kLatencyWeighted;
      } else {
        fail(line_no, "unknown balancer policy '" + value + "'");
      }
    } else if (key == "health_checks") {
      cfg.balancer.health.enabled = parse_bool(line_no, key, value);
    } else if (key == "health_probe_interval_ms") {
      cfg.balancer.health.probe_interval = parse_ms(line_no, key, value, 1);
    } else if (key == "health_probe_timeout_ms") {
      cfg.balancer.health.probe_timeout = parse_ms(line_no, key, value, 1);
    } else if (key == "health_probe_cost_us") {
      cfg.balancer.health.probe_cost_s = parse_double(line_no, key, value, 0.0, 1e6) * 1e-6;
    } else if (key == "health_ewma_alpha") {
      cfg.balancer.health.ewma_alpha = parse_double(line_no, key, value, 1e-6, 1.0);
    } else if (key == "health_eject_score") {
      cfg.balancer.health.eject_score = parse_double(line_no, key, value, 0.0, 1.0);
    } else if (key == "health_eject_probe_failures") {
      cfg.balancer.health.eject_probe_failures = parse_int(line_no, key, value, 1);
    } else if (key == "health_eject_ms") {
      cfg.balancer.health.eject_duration = parse_ms(line_no, key, value, 1);
    } else if (key == "health_rejoin_probes") {
      cfg.balancer.health.rejoin_probes = parse_int(line_no, key, value, 1);
    } else if (key == "hedge") {
      cfg.balancer.hedge.enabled = parse_bool(line_no, key, value);
    } else if (key == "hedge_deadline_ms") {
      cfg.balancer.hedge.deadline = parse_ms(line_no, key, value, 1);
    } else if (key == "hedge_budget") {
      cfg.balancer.hedge.budget = parse_double(line_no, key, value, 0.0, 1e9);
    } else if (key == "hedge_budget_refill") {
      cfg.balancer.hedge.budget_refill_per_success = parse_double(line_no, key, value, 0.0, 1e9);
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }
  if (!have_model) throw std::invalid_argument("server config: 'model' is required");
  (void)cfg.effective_max_batch();  // validate batch bounds now, not at deploy
  return cfg;
}

ServerConfig load_server_config(const std::filesystem::path& path) {
  std::ifstream in{path};
  if (!in) throw std::invalid_argument("server config: cannot open " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return parse_server_config(text.str());
}

std::string format_server_config(const ServerConfig& config) {
  std::ostringstream out;
  out << "model = " << config.model.name << "\n";
  out << "backend = " << models::backend_name(config.backend) << "\n";
  out << "preprocessing = " << preproc_device_name(config.preproc) << "\n";
  out << "mode = "
      << (config.mode == PipelineMode::kEndToEnd
              ? "end_to_end"
              : config.mode == PipelineMode::kPreprocessOnly ? "preprocess_only"
                                                             : "inference_only")
      << "\n";
  out << "ingress = " << ingress_format_name(config.ingress) << "\n";
  out << "ingress_cache = " << (config.ingress_cache.enabled ? "true" : "false") << "\n";
  out << "ingress_cache_image_mb = " << (config.ingress_cache.image_budget_bytes >> 20) << "\n";
  out << "ingress_cache_tensor_mb = " << (config.ingress_cache.tensor_budget_bytes >> 20) << "\n";
  out << "ingress_cache_lookup_us = " << micros(config.ingress_cache.lookup_s) << "\n";
  out << "dynamic_batching = " << (config.dynamic_batching ? "true" : "false") << "\n";
  out << "max_batch = " << config.effective_max_batch() << "\n";
  out << "instance_count = " << config.instance_count << "\n";
  out << "fixed_batch = " << config.fixed_batch << "\n";
  out << "max_queue_delay_us = " << whole_us(config.max_queue_delay) << "\n";
  out << "shed_deadline_ms = " << whole_ms(config.shed_deadline) << "\n";
  out << "audit = " << (config.audit ? "true" : "false") << "\n";
  out << "validate_payloads = " << (config.validate_payloads ? "true" : "false") << "\n";
  out << "retry = " << (config.retry.enabled ? "true" : "false") << "\n";
  out << "retry_max_attempts = " << config.retry.max_attempts << "\n";
  out << "retry_timeout_ms = " << whole_ms(config.retry.timeout) << "\n";
  out << "retry_backoff_base_ms = " << whole_ms(config.retry.backoff_base) << "\n";
  out << "retry_backoff_cap_ms = " << whole_ms(config.retry.backoff_cap) << "\n";
  out << "retry_budget = " << metrics::format_double(config.retry.retry_budget) << "\n";
  out << "retry_budget_refill = " << metrics::format_double(config.retry.budget_refill_per_success) << "\n";
  out << "circuit_breaker = " << (config.breaker.enabled ? "true" : "false") << "\n";
  out << "breaker_queue_depth = " << config.breaker.queue_depth_open << "\n";
  out << "breaker_error_rate = " << metrics::format_double(config.breaker.error_rate_open) << "\n";
  out << "breaker_open_ms = " << whole_ms(config.breaker.open_duration) << "\n";
  out << "breaker_half_open_probes = " << config.breaker.half_open_probes << "\n";
  out << "degrade = " << (config.degrade.enabled ? "true" : "false") << "\n";
  out << "degrade_hysteresis_ms = " << whole_ms(config.degrade.hysteresis) << "\n";
  out << "broker_publish = " << (config.broker_publish.publish_results ? "true" : "false") << "\n";
  out << "broker_retry = " << (config.broker_publish.retry_enabled ? "true" : "false") << "\n";
  out << "broker_max_attempts = " << config.broker_publish.max_attempts << "\n";
  out << "broker_backoff_ms = " << whole_ms(config.broker_publish.backoff_base) << "\n";
  out << "broker_poll_ms = " << whole_ms(config.broker_publish.poll_interval) << "\n";
  out << "balancer_policy = "
      << (config.balancer.policy == BalancerPolicy::kRoundRobin          ? "round_robin"
          : config.balancer.policy == BalancerPolicy::kRandom            ? "random"
          : config.balancer.policy == BalancerPolicy::kLeastOutstanding  ? "least_outstanding"
          : config.balancer.policy == BalancerPolicy::kPowerOfTwo        ? "p2c"
                                                                         : "latency_weighted")
      << "\n";
  out << "health_checks = " << (config.balancer.health.enabled ? "true" : "false") << "\n";
  out << "health_probe_interval_ms = " << whole_ms(config.balancer.health.probe_interval) << "\n";
  out << "health_probe_timeout_ms = " << whole_ms(config.balancer.health.probe_timeout) << "\n";
  out << "health_probe_cost_us = " << micros(config.balancer.health.probe_cost_s) << "\n";
  out << "health_ewma_alpha = " << metrics::format_double(config.balancer.health.ewma_alpha) << "\n";
  out << "health_eject_score = " << metrics::format_double(config.balancer.health.eject_score) << "\n";
  out << "health_eject_probe_failures = " << config.balancer.health.eject_probe_failures << "\n";
  out << "health_eject_ms = " << whole_ms(config.balancer.health.eject_duration) << "\n";
  out << "health_rejoin_probes = " << config.balancer.health.rejoin_probes << "\n";
  out << "hedge = " << (config.balancer.hedge.enabled ? "true" : "false") << "\n";
  out << "hedge_deadline_ms = " << whole_ms(config.balancer.hedge.deadline) << "\n";
  out << "hedge_budget = " << metrics::format_double(config.balancer.hedge.budget) << "\n";
  out << "hedge_budget_refill = " << metrics::format_double(config.balancer.hedge.budget_refill_per_success) << "\n";
  return out.str();
}

}  // namespace serve::serving
