// Shared plumbing of the engine benchmark: run options, the result report
// (the one JSON line run.py forwards), raw-sample percentiles, process
// CPU / memory readers, registry windows and the trace self-time analysis.
//
// Everything here reads the engine through its public surface only: the
// metric registry snapshot, the tracer's span buffer, and /proc.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// graph_engine_node binary (tcp_cluster only).
  std::string node_bin;
  /// Scratch directory for files the run writes (graph file, configs,
  /// node logs); removed by run.py afterwards.
  std::string work_dir;
};

double ms_between(Clock::time_point from, Clock::time_point to);
double seconds_between(Clock::time_point from, Clock::time_point to);

/// Nearest-rank percentile (p in [0, 1]) of raw samples; 0 when empty.
double percentile(std::vector<double> samples, double p);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// CPU seconds consumed by this process (all threads).
double process_cpu_seconds();
/// Peak resident set of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();
/// utime + stime of another process from /proc/<pid>/stat; nullopt when
/// the process is gone or the file is unreadable.
std::optional<double> proc_cpu_seconds(pid_t pid);
/// VmHWM (peak RSS) of a process from /proc/<pid>/status, MB.
std::optional<double> proc_peak_rss_mb(pid_t pid);

/// Result of one run: counts of attempted / failed operations, the answer
/// check verdict, and the metrics. print() emits a detail line and then
/// the result line (the last line of stdout).
class Report {
 public:
  explicit Report(bool trace);

  void attempted(std::uint64_t n = 1) { attempted_ += n; }
  /// An operation that was rejected, timed out or threw.
  void failed(const std::string& why, std::uint64_t n = 1);
  /// An answer check that did not hold: the run is not correct.
  void wrong(const std::string& why);

  /// Set a metric of the run's mode (end-to-end when untraced, per-layer
  /// when traced); setting a name outside the mode's list is a bug.
  void set(const std::string& name, double value);
  /// A registry name the benchmark reads was absent: the metric is left
  /// out of the result and listed as missing, so a rename shows.
  void missing(const std::string& metric, const std::string& registry_name);
  /// Informational value for the detail line only.
  void note(const std::string& name, double value);

  bool trace() const { return trace_; }
  void print() const;

 private:
  bool trace_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> problems_;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> missing_;
  std::map<std::string, double> notes_;
};

/// Registry deltas over a timed window: begin() snapshots, end() takes the
/// difference. Family lookups return nullopt when no instrument of that
/// family was ever attached, which the caller reports as missing.
class RegistryWindow {
 public:
  void begin();
  void end();
  /// Delta of a counter family (all labels), or of one exact
  /// `name{labels}` key when `name` carries labels.
  std::optional<double> counter(const std::string& name) const;
  /// Current (end-of-window) sum of a gauge family across labels.
  std::optional<double> gauge_sum(const std::string& family) const;

 private:
  ppr::obs::MetricsSnapshot base_;
  ppr::obs::MetricsSnapshot end_;
  ppr::obs::MetricsSnapshot delta_;
};

/// Counters and histogram sums parsed out of a node's registry JSON export
/// (`ClusterClient::metrics_json`), keyed by `name{labels}`.
struct RemoteRegistry {
  std::map<std::string, double> counters;
  std::map<std::string, double> hist_count;
  std::map<std::string, double> hist_sum_us;

  static RemoteRegistry parse(const std::string& json);
  /// Family total (all labels), or one exact key when `name` carries
  /// labels; nullopt when absent.
  std::optional<double> counter(const std::string& name) const;
  std::optional<double> histogram_sum_us(const std::string& family) const;
  std::optional<double> histogram_count(const std::string& family) const;
};

/// Empty the span buffer and turn tracing on (traced runs only; the
/// workload then toggles it per measuring unit).
void start_tracing();
/// Report trace.* metrics from the recorded spans: self time per query for
/// each span bucket, the attributed fraction of root time and the
/// dropped-span count. A span's self time is its duration minus the union
/// of its children's intervals (children may overlap: parallel RPCs).
void report_trace(Report& report, double queries);

/// Share of the VM's CPU time the host stole since the last mark() (the
/// `steal` column of /proc/stat): time our vCPUs were runnable but not run.
class HostSteal {
 public:
  HostSteal() { mark(); }
  void mark();
  double share_since_mark() const;

 private:
  static std::pair<double, double> read();  // (total, steal) ticks
  std::pair<double, double> at_mark_{};
};

/// One stretch of the timed window (a slice or a group of cycles)
/// and what it measured.
struct Unit {
  bool traced = false;
  double queries = 0;
  double seconds = 0;
  double cpu_s = 0;
  double steal = 0;  // HostSteal share over the unit
  std::vector<double> latency_ms;
};

/// The timed window's units. The window figures are medians over the
/// units the host disturbed least: a unit whose steal share is above the
/// median of its kind is left out. On the 4-vCPU VM this was sized on, the
/// host steals 0-20% of the CPU in bursts of seconds, and a window median
/// alone moved with them.
struct WindowSamples {
  std::vector<Unit> units;
  /// Open loops report goodput over the whole window (untraced, traced)
  /// instead of a median over units; 0 = use the units.
  double goodput[2] = {0, 0};
};

/// Untraced run: qps and latency_p50_ms from the quieter units. Traced run:
/// cpu_ms_per_query from its untraced units, and trace.overhead.<metric> =
/// traced / untraced - 1 from the two kinds of unit. Both:
/// tail.latency_p99_ms and its sample count over every unit (a detail note
/// in the untraced run), and the median host steal share (a detail note).
void report_window(Report& report, const WindowSamples& w);

/// Report every per-layer metric as 0 (the layer did no work), before a
/// workload fills in the layers it exercises.
void zero_per_layer(Report& report);

}  // namespace perfbench
