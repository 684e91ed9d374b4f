// Shared helpers for the table/figure reproduction benches.
//
// Every bench accepts:
//   --scale S      shrink the standard datasets (default 1.0)
//   --datasets a,b comma-separated subset (default: all four)
//   --quick        cut query counts ~4x for smoke runs
// Generated graphs and partitions are cached under PPR_CACHE_DIR
// (default .ppr_cache), mirroring the paper's amortized pre-processing.
#pragma once

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/argparse.hpp"
#include "common/serialize.hpp"
#include "common/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/dispatch.hpp"
#include "engine/cluster.hpp"
#include "engine/datasets.hpp"
#include "engine/throughput.hpp"

namespace ppr::bench {

/// Shared observability export, accepted by every bench (DESIGN.md §11):
///   --metrics-json <path|->  dump the registry snapshot as schema-1 JSON
///                            when the bench exits ("-" = stdout)
///   --trace-json <path>      enable tracing for the whole run and write a
///                            chrome://tracing "traceEvents" file at exit
/// Construct right after the ArgParser so tracing covers the full run; the
/// destructor (or an explicit flush()) writes the files.
class ObsExport {
 public:
  explicit ObsExport(const ArgParser& args)
      : metrics_path_(args.get_string("metrics-json", "")),
        trace_path_(args.get_string("trace-json", "")) {
    if (!trace_path_.empty()) obs::Tracer::global().set_enabled(true);
  }
  ~ObsExport() { flush(); }
  ObsExport(const ObsExport&) = delete;
  ObsExport& operator=(const ObsExport&) = delete;

  /// Write the requested files once; later calls are no-ops.
  void flush() {
    if (flushed_) return;
    flushed_ = true;
    if (!metrics_path_.empty()) {
      const std::string json =
          obs::MetricRegistry::global().snapshot().to_json();
      if (metrics_path_ == "-") {
        std::printf("%s\n", json.c_str());
      } else {
        std::ofstream out(metrics_path_);
        out << json << '\n';
        std::fprintf(stderr, "metrics snapshot -> %s\n",
                     metrics_path_.c_str());
      }
    }
    if (!trace_path_.empty()) {
      obs::Tracer::global().write_chrome_json(trace_path_);
      std::fprintf(stderr, "chrome://tracing file -> %s\n",
                   trace_path_.c_str());
    }
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
  bool flushed_ = false;
};

/// Enable the simulated-substrate cost models shared by all reproduction
/// benches (overridable per run):
///   --dispatch-us   per-tensor-op Python/PyTorch dispatch cost (default 5)
///   --marshal-us    per-tensor RPC (un)pickling cost (default 1)
/// The dispatch cost is only paid by the tensor baseline (the engine never
/// calls tensor kernels); the marshal cost is only paid by the
/// uncompressed tensor-list wire format (what +Compress removes).
inline void apply_rpc_cost_model(const ArgParser& args) {
  ops::set_dispatch_overhead_us(
      args.get_double("dispatch-us", ops::kPyTorchDispatchUs));
  set_tensor_marshal_overhead_us(args.get_double("marshal-us", 1.0));
}

/// Push-kernel knobs shared by the PPR benches (DESIGN.md §14):
///   --kernel sparse|dense  representation (default: the engine default,
///                          dense)
///   --force-scalar         pin the scalar SIMD paths (same effect as
///                          GE_FORCE_SCALAR=1)
/// Returns false (after printing an error) on an unknown kernel name.
inline bool apply_kernel_options(const ArgParser& args, SspprOptions& o) {
  const std::string k = args.get_string("kernel", kernel_name(o.kernel));
  if (k == "sparse") {
    o.kernel = SspprKernel::kSparse;
  } else if (k == "dense") {
    o.kernel = SspprKernel::kDense;
  } else {
    std::fprintf(stderr, "unknown kernel '%s' (want sparse|dense)\n",
                 k.c_str());
    return false;
  }
  if (args.get_bool("force-scalar", false)) simd::set_forced_scalar(true);
  return true;
}

inline std::vector<std::string> dataset_names(const ArgParser& args) {
  const std::string csv =
      args.get_string("datasets",
                      "products-sim,twitter-sim,friendster-sim,papers-sim");
  std::vector<std::string> names;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) names.push_back(item);
  }
  return names;
}

inline double scale(const ArgParser& args) {
  return args.get_double("scale", 1.0);
}

inline Graph dataset(const std::string& name, double s) {
  return load_or_generate(dataset_spec(name), default_cache_dir(), s);
}

inline std::string partition_tag(const std::string& name, double s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s_s%.3f", name.c_str(), s);
  return buf;
}

inline PartitionAssignment partition(const Graph& g, const std::string& name,
                                     double s, int parts) {
  return load_or_partition(g, partition_tag(name, s), parts,
                           default_cache_dir());
}

/// Simulated-cluster network model used by all benches (TensorPipe-class
/// per-call latency; see rpc/transport.hpp).
inline NetworkModel bench_network() { return NetworkModel{}; }

inline std::unique_ptr<Cluster> make_cluster(const Graph& g,
                                             const std::string& name,
                                             double s, int machines) {
  ClusterOptions opts;
  opts.num_machines = machines;
  opts.network = bench_network();
  return std::make_unique<Cluster>(g, partition(g, name, s, machines), opts);
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace ppr::bench
