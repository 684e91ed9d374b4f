// perfbench: the engine benchmark program. Runs one workload in this
// process and prints a detail line and then the result line.
//
//   perfbench --workload serve_open|ingest_mixed|tcp_cluster
//             --seed N --seconds S --trace 0|1
//             [--node-bin PATH] [--work-dir DIR]
//
// run.py builds this binary and is the supported way to call it.
#include <cstdio>
#include <exception>
#include <string>

#include "common/argparse.hpp"
#include "common/log.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  ppr::ArgParser args(argc, argv);
  perfbench::RunOptions opts;
  opts.workload = args.get_string("workload", "");
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opts.seconds = args.get_double("seconds", 10.0);
  opts.trace = args.get_int("trace", 0) != 0;
  opts.node_bin = args.get_string("node-bin", "");
  opts.work_dir = args.get_string("work-dir", ".");
  if (opts.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  ppr::set_log_level(ppr::LogLevel::kWarn);

  try {
    perfbench::Report report(opts.trace);
    if (opts.trace) perfbench::zero_per_layer(report);
    if (opts.workload == "serve_open") {
      perfbench::run_serve_open(opts, report);
    } else if (opts.workload == "ingest_mixed") {
      perfbench::run_ingest_mixed(opts, report);
    } else if (opts.workload == "tcp_cluster") {
      perfbench::run_tcp_cluster(opts, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opts.workload.c_str());
      return 2;
    }
    report.print();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
