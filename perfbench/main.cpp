// perfbench entry point: `prep` and `run` phases (see bench.h).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.h"
#include "common/log.h"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench prep --workload W --seed S --dir D [--tiny]\n"
               "       perfbench run --workload W --dir D --seconds T "
               "--trace 0|1 [--tiny] [--perturb]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string phase = argv[1];
  perfbench::RunOptions opt;
  std::uint64_t seed = 1;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--dir") {
      opt.dir = value();
    } else if (a == "--seed") {
      seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--perturb") {
      opt.perturb = true;
    } else {
      usage();
    }
  }
  if (opt.workload.empty() || opt.dir.empty()) usage();
  hdd::set_log_level(hdd::LogLevel::kError);

  perfbench::Report report;
  try {
    if (phase == "prep") {
      perfbench::prep_workload(opt.workload, seed, opt.dir, opt.tiny, report);
    } else if (phase == "run" && opt.workload == "serve_ingest") {
      perfbench::run_serve_ingest(opt, report);
    } else if (phase == "run" && opt.workload == "interval_forest") {
      perfbench::run_interval_forest(opt, report);
    } else if (phase == "run" && opt.workload == "retrain_cycle") {
      perfbench::run_retrain_cycle(opt, report);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    report.fail_check(std::string("exception: ") + e.what());
    ++report.failed;
  }
  std::cout << report.json() << std::endl;
  return report.correct() ? 0 : 1;
}
