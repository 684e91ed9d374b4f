#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

using ppr::obs::MetricKind;
using ppr::obs::MetricsSnapshot;
using ppr::obs::SpanRecord;
using ppr::obs::Tracer;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::optional<double> proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream fields(text.substr(close + 2));
  std::string f;
  double utime = 0, stime = 0;
  // Fields 3.. follow; utime and stime are fields 14 and 15.
  for (int field = 3; field <= 15 && (fields >> f); ++field) {
    if (field == 14) utime = std::stod(f);
    if (field == 15) stime = std::stod(f);
  }
  if (!fields) return std::nullopt;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

std::optional<double> proc_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Metric lists. These names and units are the contract BENCHMARK.json
// repeats; run.py rejects a result whose names differ from it.

namespace {

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"qps", "1/s"},
      {"latency_p50_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"cpu_ms_per_query", "ms"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.execute_p50_ms", "ms"},
      {"serve.queue_wait_mean_ms", "ms"},
      {"serve.execute_mean_ms", "ms"},
      {"serve.batch_size_mean", "count"},
      {"serve.generator_lag_p99_ms", "ms"},
      {"serve.generator_lag_max_ms", "ms"},
      {"engine.rounds_per_batch", "count"},
      {"engine.batch_call_ms_per_query", "ms"},
      {"ppr.pushes_per_query", "count"},
      {"ppr.dense_round_share", "ratio"},
      {"storage.rows_local_per_query", "count"},
      {"storage.rows_halo_per_query", "count"},
      {"storage.rows_cached_per_query", "count"},
      {"storage.rows_wire_per_query", "count"},
      {"storage.rpcs_per_query", "count"},
      {"storage.remote_bytes_per_query", "B"},
      {"storage.remote_ratio", "ratio"},
      {"storage.cache_hit_ratio", "ratio"},
      {"storage.cache_evictions_per_query", "count"},
      {"storage.version_invalidations_per_write", "count"},
      {"storage.delta_edges_end", "count"},
      {"storage.compaction_ms", "ms"},
      {"storage.mutation_p50_ms", "ms"},
      {"rpc.buffer_pool_allocs", "count"},
      {"rpc.tcp_frames_per_query", "count"},
      {"rpc.tcp_bytes_per_query", "B"},
      {"cluster.node_cpu_ms_per_query", "ms"},
      {"cluster.client_cpu_ms_per_query", "ms"},
      {"cluster.boot_s", "s"},
      {"partition.setup_s", "s"},
      {"engine.cluster_build_s", "s"},
      {"tail.latency_p99_ms", "ms"},
      {"tail.latency_samples", "count"},
      {"trace.bench_call.self_ms_per_query", "ms"},
      {"trace.serve.query.self_ms_per_query", "ms"},
      {"trace.serve.queue_wait.self_ms_per_query", "ms"},
      {"trace.serve.batch.self_ms_per_query", "ms"},
      {"trace.ssppr.batch_round.self_ms_per_query", "ms"},
      {"trace.pipeline.execute.self_ms_per_query", "ms"},
      {"trace.rpc.server.self_ms_per_query", "ms"},
      {"trace.storage.mutate.self_ms_per_query", "ms"},
      {"trace.storage.compaction.self_ms_per_query", "ms"},
      {"trace.attributed_fraction", "ratio"},
      {"trace.spans_dropped", "count"},
      {"trace.overhead.qps", "ratio"},
      {"trace.overhead.latency_p50_ms", "ratio"},
      {"trace.overhead.cpu_ms_per_query", "ratio"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& mode_metrics(
    bool trace) {
  return trace ? per_layer_metrics() : end_to_end_metrics();
}

const std::string* unit_of(bool trace, const std::string& name) {
  for (const auto& [n, unit] : mode_metrics(trace)) {
    if (n == name) return &unit;
  }
  return nullptr;
}

/// `s` as a JSON string literal (control characters become spaces).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Report::Report(bool trace) : trace_(trace) {}

void Report::failed(const std::string& why, std::uint64_t n) {
  failed_ += n;
  if (problems_.size() < 20) problems_.push_back("failed: " + why);
}

void Report::wrong(const std::string& why) {
  correct_ = false;
  ++failed_;
  if (problems_.size() < 20) problems_.push_back("wrong: " + why);
}

void Report::set(const std::string& name, double value) {
  if (unit_of(trace_, name) == nullptr) {
    throw std::logic_error("metric '" + name + "' is not a " +
                           (trace_ ? "per-layer" : "end-to-end") + " metric");
  }
  metrics_[name] = value;
}

void Report::missing(const std::string& metric,
                     const std::string& registry_name) {
  missing_[metric] = registry_name;
}

void Report::note(const std::string& name, double value) {
  notes_[name] = value;
}

void Report::print() const {
  for (const std::string& p : problems_) {
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  }
  for (const auto& [metric, reg] : missing_) {
    std::fprintf(stderr,
                 "perfbench: registry name '%s' is missing; metric '%s' not "
                 "reported\n",
                 reg.c_str(), metric.c_str());
  }
  // Detail line: counts and values that are not metrics of this mode.
  std::string detail = "{\"detail\": {";
  const char* sep = "";
  for (const auto& [name, value] : notes_) {
    detail.append(sep).append(quoted(name)).append(": ").append(json_number(value));
    sep = ", ";
  }
  detail += "}, \"missing_registry_names\": [";
  sep = "";
  for (const auto& [metric, reg] : missing_) {
    detail.append(sep).append(quoted(reg));
    sep = ", ";
  }
  detail += "], \"problems\": [";
  sep = "";
  for (const std::string& p : problems_) {
    detail.append(sep).append(quoted(p));
    sep = ", ";
  }
  detail += "]}";
  std::printf("%s\n", detail.c_str());

  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  sep = "";
  for (const auto& [name, unit] : mode_metrics(trace_)) {
    if (missing_.count(name) != 0) continue;
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      throw std::logic_error("metric '" + name + "' was never set");
    }
    out.append(sep).append(quoted(name)).append(": {\"value\": ");
    out.append(json_number(it->second)).append(", \"unit\": ");
    out.append(quoted(unit)).append("}");
    sep = ", ";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Registry windows.

namespace {

bool family_present(const MetricsSnapshot& s, const std::string& family) {
  for (const auto& e : s.entries) {
    if (e.name == family) return true;
  }
  return false;
}

}  // namespace

void RegistryWindow::begin() {
  base_ = ppr::obs::MetricRegistry::global().snapshot();
}

void RegistryWindow::end() {
  end_ = ppr::obs::MetricRegistry::global().snapshot();
  delta_ = end_.delta_since(base_);
}

std::optional<double> RegistryWindow::counter(const std::string& name) const {
  if (name.find('{') != std::string::npos) {
    if (end_.find(name) == nullptr) return std::nullopt;
    return static_cast<double>(delta_.counter(name));
  }
  if (!family_present(end_, name)) return std::nullopt;
  return static_cast<double>(delta_.counter_total(name));
}

std::optional<double> RegistryWindow::gauge_sum(
    const std::string& family) const {
  if (!family_present(end_, family)) return std::nullopt;
  double total = 0;
  for (const auto& e : end_.entries) {
    if (e.name == family && e.kind == MetricKind::kGauge) {
      total += static_cast<double>(e.gauge);
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Minimal reader for the registry's schema-1 JSON export: objects, strings
// and numbers are all it contains.

namespace {

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!consume(c)) throw std::runtime_error("malformed registry JSON");
  }
  std::string string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      out += s_[i_++];
    }
    expect('"');
    return out;
  }
  double number() {
    skip_ws();
    std::size_t used = 0;
    const double v = std::stod(s_.substr(i_, 40), &used);
    i_ += used;
    return v;
  }
  /// Calls `on_member(key)` for each member of the object at the cursor;
  /// the callback must consume the member's value.
  template <typename Fn>
  void object(Fn&& on_member) {
    expect('{');
    if (consume('}')) return;
    do {
      const std::string key = string();
      expect(':');
      on_member(key);
    } while (consume(','));
    expect('}');
  }
  void skip_value() {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == '{') {
      object([this](const std::string&) { skip_value(); });
    } else if (i_ < s_.size() && s_[i_] == '"') {
      (void)string();
    } else {
      (void)number();
    }
  }

 private:
  const std::string& s_;
  std::size_t i_ = 0;
};

std::string family_of(const std::string& key) {
  return key.substr(0, key.find('{'));
}

std::optional<double> family_total(const std::map<std::string, double>& m,
                                   const std::string& family) {
  bool present = false;
  double total = 0;
  for (const auto& [key, v] : m) {
    if (family_of(key) != family) continue;
    present = true;
    total += v;
  }
  if (!present) return std::nullopt;
  return total;
}

}  // namespace

RemoteRegistry RemoteRegistry::parse(const std::string& json) {
  RemoteRegistry r;
  JsonReader in(json);
  in.object([&](const std::string& section) {
    if (section == "counters") {
      in.object([&](const std::string& key) { r.counters[key] = in.number(); });
    } else if (section == "histograms") {
      in.object([&](const std::string& key) {
        double count = 0, mean_us = 0;
        in.object([&](const std::string& field) {
          const double v = in.number();
          if (field == "count") count = v;
          if (field == "mean_us") mean_us = v;
        });
        r.hist_count[key] = count;
        r.hist_sum_us[key] = count * mean_us;
      });
    } else {
      in.skip_value();
    }
  });
  return r;
}

std::optional<double> RemoteRegistry::counter(const std::string& name) const {
  if (name.find('{') != std::string::npos) {
    const auto it = counters.find(name);
    if (it == counters.end()) return std::nullopt;
    return it->second;
  }
  return family_total(counters, name);
}

std::optional<double> RemoteRegistry::histogram_sum_us(
    const std::string& family) const {
  return family_total(hist_sum_us, family);
}

std::optional<double> RemoteRegistry::histogram_count(
    const std::string& family) const {
  return family_total(hist_count, family);
}

// ---------------------------------------------------------------------------
// Trace analysis.

namespace {

/// Per-layer split of the traced window, by span bucket: the span name,
/// with every `rpc.server.*` span folded into `rpc.server` and every
/// benchmark root span (`bench.*`) into `bench_call`.
struct TraceSummary {
  std::map<std::string, double> self_ms;
  double root_ms = 0;       // summed duration of root spans
  double root_self_ms = 0;  // the part of it no child covers
  std::size_t spans = 0;
};

std::string bucket_of(const SpanRecord& s) {
  if (s.name.rfind("rpc.server.", 0) == 0) return "rpc.server";
  if (s.name.rfind("bench.", 0) == 0) return "bench_call";
  return s.name;
}

/// Length of the union of [start, end) intervals clipped to [lo, hi).
double covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv,
                  std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  std::int64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_end) {
      cur_end = std::max(cur_end, b);
      continue;
    }
    if (open) total += static_cast<double>(cur_end - cur_start);
    cur_start = a;
    cur_end = b;
    open = true;
  }
  if (open) total += static_cast<double>(cur_end - cur_start);
  return total;
}

TraceSummary summarize_trace(const std::vector<SpanRecord>& spans) {
  TraceSummary out;
  out.spans = spans.size();
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  std::set<std::uint64_t> ids;
  for (const SpanRecord& s : spans) ids.insert(s.span_id);
  for (const SpanRecord& s : spans) {
    if (s.parent_id != 0) {
      children[s.parent_id].emplace_back(s.start_ns, s.end_ns);
    }
  }
  for (const SpanRecord& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    double covered = 0;
    const auto it = children.find(s.span_id);
    if (it != children.end()) covered = covered_ns(it->second, s.start_ns, s.end_ns);
    const double self_ns = std::max(0.0, dur - covered);
    out.self_ms[bucket_of(s)] += self_ns / 1e6;
    // A root is a span without a recorded parent: either a trace root or
    // a span whose parent lives in another process.
    if (s.parent_id == 0 || ids.count(s.parent_id) == 0) {
      out.root_ms += dur / 1e6;
      out.root_self_ms += self_ns / 1e6;
    }
  }
  return out;
}

}  // namespace

void start_tracing() {
  Tracer::global().clear();
  Tracer::global().set_enabled(true);
}

void report_trace(Report& report, double queries) {
  Tracer::global().set_enabled(false);
  const std::uint64_t dropped = Tracer::global().dropped();
  const TraceSummary t = summarize_trace(Tracer::global().spans());
  const double q = std::max(1.0, queries);
  const auto self = [&](const std::string& bucket) {
    const auto it = t.self_ms.find(bucket);
    return it == t.self_ms.end() ? 0.0 : it->second / q;
  };
  for (const char* bucket :
       {"bench_call", "serve.query", "serve.queue_wait", "serve.batch",
        "ssppr.batch_round", "pipeline.execute", "rpc.server",
        "storage.mutate", "storage.compaction"}) {
    report.set(std::string("trace.") + bucket + ".self_ms_per_query",
               self(bucket));
  }
  report.set("trace.attributed_fraction",
             t.root_ms > 0 ? 1.0 - t.root_self_ms / t.root_ms : 0.0);
  report.set("trace.spans_dropped", static_cast<double>(dropped));
  report.note("trace.spans_recorded", static_cast<double>(t.spans));
  report.note("trace.traced_queries", queries);
  if (dropped != 0) report.wrong("trace buffer dropped spans");
  Tracer::global().clear();
}

void HostSteal::mark() { at_mark_ = read(); }

double HostSteal::share_since_mark() const {
  const auto [total, steal] = read();
  const double dt = total - at_mark_.first;
  return dt > 0 ? (steal - at_mark_.second) / dt : 0.0;
}

std::pair<double, double> HostSteal::read() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // aggregate "cpu" line: user nice system idle iowait irq
              // softirq steal ...
  double total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

namespace {

struct ModeFigures {
  double qps = 0, latency_p50_ms = 0, cpu_ms_per_query = 0, steal = 0;
};

/// Medians over the units of one kind whose steal share is at most the
/// median of that kind.
ModeFigures mode_figures(const WindowSamples& w, bool traced) {
  std::vector<double> steal;
  for (const Unit& u : w.units) {
    if (u.traced == traced) steal.push_back(u.steal);
  }
  const double cutoff = median(steal);
  std::vector<double> qps, cpu, latency;
  for (const Unit& u : w.units) {
    if (u.traced != traced || u.steal > cutoff) continue;
    if (u.queries > 0 && u.seconds > 0) {
      qps.push_back(u.queries / u.seconds);
      cpu.push_back(1e3 * u.cpu_s / u.queries);
    }
    latency.insert(latency.end(), u.latency_ms.begin(), u.latency_ms.end());
  }
  ModeFigures f;
  f.qps = w.goodput[traced] > 0 ? w.goodput[traced] : median(qps);
  f.latency_p50_ms = median(latency);
  f.cpu_ms_per_query = median(cpu);
  f.steal = cutoff;
  return f;
}

}  // namespace

void report_window(Report& report, const WindowSamples& w) {
  std::vector<double> latency;
  for (const Unit& u : w.units) {
    latency.insert(latency.end(), u.latency_ms.begin(), u.latency_ms.end());
  }
  const double p99 = percentile(latency, 0.99);
  const auto samples = static_cast<double>(latency.size());
  const ModeFigures untraced = mode_figures(w, false);
  report.note("host.steal_share_median", untraced.steal);
  if (!report.trace()) {
    report.note("tail.latency_p99_ms", p99);
    report.note("tail.latency_samples", samples);
    report.set("qps", untraced.qps);
    report.set("latency_p50_ms", untraced.latency_p50_ms);
    report.note("cpu_ms_per_query", untraced.cpu_ms_per_query);
    return;
  }
  report.set("cpu_ms_per_query", untraced.cpu_ms_per_query);
  report.set("tail.latency_p99_ms", p99);
  report.set("tail.latency_samples", samples);
  const ModeFigures traced = mode_figures(w, true);
  const auto change = [](double before, double after) {
    return before > 0 ? after / before - 1.0 : 0.0;
  };
  report.set("trace.overhead.qps", change(untraced.qps, traced.qps));
  report.set("trace.overhead.latency_p50_ms",
             change(untraced.latency_p50_ms, traced.latency_p50_ms));
  report.set("trace.overhead.cpu_ms_per_query",
             change(untraced.cpu_ms_per_query, traced.cpu_ms_per_query));
}

void zero_per_layer(Report& report) {
  for (const auto& [name, unit] : per_layer_metrics()) report.set(name, 0.0);
}

}  // namespace perfbench
