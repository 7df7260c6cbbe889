// ara_perfbench — one workload, one seed, one measuring window.
//
//   ara_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --workdir DIR [--tracefile PATH]
//
// Workloads: paper_quote, serve_quotes, book_dist (see
// README.md). Prints a human-readable table, then one line
// "PERFBENCH_RESULT {json}" with every metric's value, unit and sample
// count; run.py validates it and prints the final result. Exits 1 when
// any output failed its correctness check.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "inputs.hpp"
#include "layers.hpp"

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "ara_perfbench: " << msg << "\n"
            << "usage: ara_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--tracefile PATH]\n";
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else if (arg == "--tracefile") {
      opt.tracefile = value;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (opt.workload.empty() || opt.workdir.empty()) {
    usage("--workload and --workdir are required");
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Env env;
  env.opt = parse(argc, argv);
  env.threads = std::max(1u, std::thread::hardware_concurrency());

  const std::string& w = env.opt.workload;
  void (*run)(Env&, LayerFacts&) = nullptr;
  if (w == "paper_quote") run = run_paper_quote;
  if (w == "serve_quotes") run = run_serve_quotes;
  if (w == "book_dist") run = run_book_dist;
  if (run == nullptr) usage("unknown workload " + w);

  Tracer tracer;
  LayerFacts facts;
  HostCeiling host;
  try {
    std::filesystem::create_directories(env.opt.workdir);
    if (env.opt.trace) {
      env.tracer = &tracer;
      host = probe_host(env.threads);
      env.report.note("host probe: " + std::to_string(host.array_bytes >> 20) +
                      " MiB arrays (LLC " +
                      std::to_string(host.llc_bytes >> 20) + " MiB), " +
                      std::to_string(host.chase_steps) + " chase steps");
    }
    run(env, facts);
    if (env.opt.trace) {
      report_layers(env, facts, host);
      if (!env.opt.tracefile.empty()) tracer.write(env.opt.tracefile);
    }
  } catch (const std::exception& e) {
    env.report.fail(std::string("exception: ") + e.what());
  }
  env.report.print(env.opt, env.threads, env.inputs_digest);
  return env.report.failed() == 0 ? 0 : 1;
}
