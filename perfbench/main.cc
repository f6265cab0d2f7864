// Benchmark runner: runs one workload for a fixed wall-clock window and
// writes everything it observed to a record file. run.py builds this
// binary, runs it and turns the record into metrics.
//
//   perfbench --workload olap-star|robust-trap|serve-mixed --seed N
//             --seconds S --trace 0|1 --out FILE --spill-dir DIR

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out FILE --spill-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      cfg.out_path = value;
    } else if (flag == "--spill-dir") {
      cfg.spill_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || cfg.out_path.empty() || cfg.spill_dir.empty() ||
      cfg.seconds <= 0) {
    return Usage();
  }

  // Keep freed memory in the process instead of returning it to the kernel
  // after every query: otherwise each query's hash tables are fresh mmaps
  // whose page faults and zeroing dominate the run-to-run noise.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);

  perfbench::Recorder rec(cfg.trace);
  if (cfg.workload == "olap-star") {
    perfbench::RunOlapStar(cfg, &rec);
  } else if (cfg.workload == "robust-trap") {
    perfbench::RunRobustTrap(cfg, &rec);
  } else if (cfg.workload == "serve-mixed") {
    perfbench::RunServeMixed(cfg, &rec);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  if (!rec.WriteTo(cfg.out_path)) {
    std::fprintf(stderr, "cannot write %s\n", cfg.out_path.c_str());
    return 2;
  }
  return 0;
}
