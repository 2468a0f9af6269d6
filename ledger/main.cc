// ledger: runs one benchmark workload and prints its metrics.
//
//   ledger --workload figures|serve_hot|serve_cold --seed N --seconds S
//          --trace 0|1 [--out-dir DIR]
//
// The last line of standard output is the JSON result; with --trace 0
// it holds the end-to-end metrics, with --trace 1 the per-layer ones.
// Exit code: 0 when every verdict matched its reference, 1 when one did
// not (the result line still prints), 2 on a usage or build error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ledger/ledger.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "ledger: %s\nusage: ledger --workload "
               "figures|serve_hot|serve_cold --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
        arg == "--trace" || arg == "--out-dir") {
      const char* value = next();
      if (value == nullptr) return Usage(("missing value for " + arg).c_str());
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::strtoull(value, nullptr, 10);
      } else if (arg == "--seconds") {
        options.seconds = std::strtod(value, nullptr);
      } else if (arg == "--trace") {
        options.trace = std::strcmp(value, "0") != 0;
      } else {
        options.out_dir = value;
      }
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }
  std::string refusal = ledger::BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "ledger: refusing to run: %s\n", refusal.c_str());
    return 2;
  }

  ledger::EnvStamp stamp = ledger::StampStart();
  ledger::RunResult result;
  if (options.workload == "figures") {
    result = ledger::RunFigures(options);
  } else if (options.workload == "serve_hot") {
    result = ledger::RunServeHot(options);
  } else if (options.workload == "serve_cold") {
    result = ledger::RunServeCold(options);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  ledger::StampEnd(&stamp);

  std::printf("%s\n", ledger::StampJson(stamp, options.workload, options.seed,
                                         options.trace)
                          .c_str());
  if (ledger::Overloaded(stamp)) {
    std::printf("WARNING: load average exceeded the core count (%d); "
                "treat these numbers as suspect\n",
                stamp.nproc);
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "ledger: %s\n", problem.c_str());
  }
  ledger::Report printed = result.metrics.Select(
      options.trace ? ledger::PerLayerMetrics() : ledger::EndToEndMetrics());
  printed.PrintTable(stdout);
  std::printf("%s\n",
              printed.ResultLine(result.correct, result.attempted, result.failed)
                  .c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
