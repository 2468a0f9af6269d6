// xmlvc-serve: the persistent verification service.
//
//   xmlvc-serve [--port=N] [--jobs=N] [--queue-limit=N] [--timeout=MS]
//               [--memory-limit=MB] [--max-depth=N] [--cache-entries=N]
//               [--max-requests=N] [--stats]
//
// Binds 127.0.0.1:<port> (an ephemeral port when --port is omitted or
// 0), prints one line
//
//   LISTENING 127.0.0.1 <port>
//
// to stdout, and serves JSON-lines verification requests until
// SIGINT/SIGTERM (or until --max-requests responses have been
// written). A verdict-cache miss is first confirmed, when it can be,
// from the same DTD's recent verdicts: by replaying an old witness
// (CONSISTENT) or by quick-tier implication (INCONSISTENT). Protocol,
// verdict-cache semantics, incremental re-verification and the
// operator runbook: docs/serving.md.
//
// Flags:
//   --port=N          TCP port on 127.0.0.1 (default 0: ephemeral)
//   --jobs=N          worker threads (default: hardware threads)
//   --queue-limit=N   bounded admission queue; a request arriving with
//                     N already waiting is shed with a RETRYABLE
//                     response (default 256)
//   --timeout=MS      per-request wall-clock ceiling; a request's own
//                     timeout_ms may tighten but never exceed it
//   --memory-limit=MB per-request tracked-allocation ceiling
//   --max-depth=N     parser/recursion nesting ceiling
//   --cache-entries=N verdict-cache capacity per tier (default 65536)
//   --max-requests=N  exit after N responses (testing/benches)
//   --max-line-bytes=N     longest accepted request line (default 4MiB)
//   --idle-timeout-ms=MS   cancel + close a connection that sends no
//                          bytes for MS (slowloris defense; default off)
//   --write-timeout-ms=MS  cancel a connection whose peer stops
//                          draining a response for MS (default off)
//   --max-connections=N    shed accepts beyond N open connections with
//                          a RETRYABLE line (default off)
//   --cache-snapshot=PATH  load the verdict cache from PATH at start,
//                          write it back on drain (crash recovery;
//                          docs/serving.md)
//   --snapshot-interval-ms=MS  additionally snapshot every MS while
//                              serving (default: drain only)
//   --fault-inject=SPEC    arm deterministic fault injection (same
//                          grammar as XMLVERIFY_FAULT_INJECT;
//                          docs/robustness.md)
//   --fault-seed=N         seed for probabilistic fault rules
//   --stats           on exit, print the JSON counter report (the
//                     serve/* counters plus everything the checks
//                     recorded) to stdout
//
// The XMLVERIFY_FAULT_INJECT / XMLVERIFY_FAULT_SEED environment
// variables arm fault injection too (flags win when both are given).
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "base/fault_injection.h"
#include "base/resource_guard.h"
#include "base/string_util.h"
#include "serve/server.h"
#include "trace/trace.h"

namespace {

using namespace xmlverify;

int Usage() {
  std::fprintf(stderr,
               "usage: xmlvc-serve [--port=N] [--jobs=N] [--queue-limit=N]\n"
               "                   [--timeout=MS] [--memory-limit=MB]\n"
               "                   [--max-depth=N] [--cache-entries=N]\n"
               "                   [--max-requests=N]\n"
               "                   [--idle-timeout-ms=MS]\n"
               "                   [--write-timeout-ms=MS]\n"
               "                   [--max-connections=N]\n"
               "                   [--cache-snapshot=PATH]\n"
               "                   [--snapshot-interval-ms=MS]\n"
               "                   [--fault-inject=SPEC] [--fault-seed=N]\n"
               "                   [--stats]\n"
               "serves JSON-lines verification requests on 127.0.0.1\n"
               "(wire protocol and runbook: docs/serving.md)\n");
  return 2;
}

// Signal handlers may only set a flag; a watcher thread bridges the
// flag to a clean ServeServer::Shutdown.
volatile std::sig_atomic_t g_signalled = 0;

void SetSignalled(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  ServeOptions options;
  bool stats = false;
  std::string fault_spec;
  uint64_t fault_seed = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--port=")) {
      options.port = std::atoi(arg.c_str() + 7);
      if (options.port < 0 || options.port > 65535) {
        std::fprintf(stderr, "error: --port expects 0..65535\n");
        return 2;
      }
    } else if (StartsWith(arg, "--jobs=")) {
      options.jobs = std::atoi(arg.c_str() + 7);
      if (options.jobs <= 0) {
        std::fprintf(stderr, "error: --jobs expects a positive integer\n");
        return 2;
      }
    } else if (StartsWith(arg, "--queue-limit=")) {
      long limit = std::atol(arg.c_str() + 14);
      if (limit <= 0) {
        std::fprintf(stderr,
                     "error: --queue-limit expects a positive integer\n");
        return 2;
      }
      options.queue_limit = static_cast<size_t>(limit);
    } else if (StartsWith(arg, "--timeout=")) {
      options.timeout_millis = std::atoll(arg.c_str() + 10);
      if (options.timeout_millis <= 0) {
        std::fprintf(stderr,
                     "error: --timeout expects a positive millisecond count\n");
        return 2;
      }
    } else if (StartsWith(arg, "--memory-limit=")) {
      int64_t megabytes = std::atoll(arg.c_str() + 15);
      if (megabytes <= 0) {
        std::fprintf(stderr,
                     "error: --memory-limit expects a positive megabyte "
                     "count\n");
        return 2;
      }
      options.memory_limit_bytes = megabytes * int64_t{1024} * 1024;
    } else if (StartsWith(arg, "--max-depth=")) {
      options.max_depth = std::atoi(arg.c_str() + 12);
      if (options.max_depth <= 0) {
        std::fprintf(stderr, "error: --max-depth expects a positive integer\n");
        return 2;
      }
      SetMaxParseDepth(options.max_depth);
    } else if (StartsWith(arg, "--cache-entries=")) {
      long entries = std::atol(arg.c_str() + 16);
      if (entries <= 0) {
        std::fprintf(stderr,
                     "error: --cache-entries expects a positive integer\n");
        return 2;
      }
      options.cache_entries = static_cast<size_t>(entries);
    } else if (StartsWith(arg, "--max-requests=")) {
      options.max_requests = std::atoll(arg.c_str() + 15);
      if (options.max_requests <= 0) {
        std::fprintf(stderr,
                     "error: --max-requests expects a positive integer\n");
        return 2;
      }
    } else if (StartsWith(arg, "--max-line-bytes=")) {
      long bytes = std::atol(arg.c_str() + 17);
      if (bytes <= 0) {
        std::fprintf(stderr,
                     "error: --max-line-bytes expects a positive integer\n");
        return 2;
      }
      options.max_line_bytes = static_cast<size_t>(bytes);
    } else if (StartsWith(arg, "--idle-timeout-ms=")) {
      options.idle_timeout_millis = std::atoll(arg.c_str() + 18);
      if (options.idle_timeout_millis <= 0) {
        std::fprintf(stderr,
                     "error: --idle-timeout-ms expects a positive "
                     "millisecond count\n");
        return 2;
      }
    } else if (StartsWith(arg, "--write-timeout-ms=")) {
      options.write_timeout_millis = std::atoll(arg.c_str() + 19);
      if (options.write_timeout_millis <= 0) {
        std::fprintf(stderr,
                     "error: --write-timeout-ms expects a positive "
                     "millisecond count\n");
        return 2;
      }
    } else if (StartsWith(arg, "--max-connections=")) {
      options.max_connections = std::atoi(arg.c_str() + 18);
      if (options.max_connections <= 0) {
        std::fprintf(stderr,
                     "error: --max-connections expects a positive integer\n");
        return 2;
      }
    } else if (StartsWith(arg, "--cache-snapshot=")) {
      options.cache_snapshot_path = arg.substr(17);
      if (options.cache_snapshot_path.empty()) {
        std::fprintf(stderr, "error: --cache-snapshot expects a path\n");
        return 2;
      }
    } else if (StartsWith(arg, "--snapshot-interval-ms=")) {
      options.snapshot_interval_millis = std::atoll(arg.c_str() + 23);
      if (options.snapshot_interval_millis <= 0) {
        std::fprintf(stderr,
                     "error: --snapshot-interval-ms expects a positive "
                     "millisecond count\n");
        return 2;
      }
    } else if (StartsWith(arg, "--fault-inject=")) {
      fault_spec = arg.substr(15);
    } else if (StartsWith(arg, "--fault-seed=")) {
      fault_seed = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg == "--stats") {
      stats = true;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }

  // Flags win over the environment; either way the armed spec is
  // validated up front so a typo fails loudly at startup, not
  // silently mid-soak.
  if (!fault_spec.empty()) {
    Status armed = FaultInjector::Arm(fault_spec, fault_seed);
    if (!armed.ok()) {
      std::fprintf(stderr, "error: --fault-inject: %s\n",
                   armed.ToString().c_str());
      return 2;
    }
  } else {
    Status armed = FaultInjector::ArmFromEnv();
    if (!armed.ok()) {
      std::fprintf(stderr, "error: XMLVERIFY_FAULT_INJECT: %s\n",
                   armed.ToString().c_str());
      return 2;
    }
  }

  StatsRegistry registry;
  options.stats = &registry;

  ServeServer server(options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 2;
  }
  std::printf("LISTENING 127.0.0.1 %d\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, SetSignalled);
  std::signal(SIGTERM, SetSignalled);

  // The watcher polls the signal flag and triggers a clean shutdown;
  // it exits as soon as the server stops for any reason (signal or
  // --max-requests), so the join below never waits long.
  std::thread signal_watcher([&server] {
    while (g_signalled == 0 && !server.stopped()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (g_signalled != 0) server.Shutdown();
  });

  server.Wait();
  signal_watcher.join();

  if (stats) std::fputs(registry.ToJson().c_str(), stdout);
  return 0;
}
