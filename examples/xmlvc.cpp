// xmlvc: the command-line consistency checker.
//
//   xmlvc check <spec.dtd> <constraints.txt> [--witness <out.xml>]
//       Decides consistency of the specification and optionally
//       writes a witness document.
//   xmlvc validate <spec.dtd> <constraints.txt> <document.xml>
//       Dynamically validates one document against the DTD and the
//       constraints (the "dynamic approach" of the paper's intro).
//   xmlvc classify <spec.dtd> <constraints.txt>
//       Reports the constraint class (Figures 3/4) and, for relative
//       constraints, the hierarchy/locality analysis.
//   xmlvc diagnose <spec.dtd> <constraints.txt>
//       For an inconsistent specification, prints a minimal
//       inconsistent core (drop any one of its constraints and a
//       document exists). Exits 4 or 5, like check, when the whole
//       specification does not settle within --timeout or the budget.
//   xmlvc simplify <spec.dtd> <constraints.txt>
//       Drops the absolute unary constraints the others imply.
//   xmlvc --batch <manifest>
//       Checks every specification listed in the manifest (one per
//       line: a combined .xvc path, or DTD and constraint paths) on a
//       thread pool, one verdict line per spec in manifest order.
//
// Flags, accepted anywhere on the command line (see
// docs/observability.md for the report schema and docs/robustness.md
// for budgets, the degradation ladder, and fault injection); any other
// argument starting with "--" is rejected with exit code 2:
//   --jobs=N          batch worker threads (default: hardware threads)
//   --timeout=MS      per-check wall-clock budget in milliseconds;
//                     an expired check reports DEADLINE_EXCEEDED
//                     (diagnose, simplify and --explain-core give
//                     each of their probes the whole budget)
//   --memory-limit=MB per-check tracked-allocation ceiling; exhaustion
//                     reports RESOURCE_EXHAUSTED (exit 5), never a
//                     definitive verdict
//   --max-depth=N     parser/recursion nesting ceiling (default 1000)
//   --retries=N       batch mode: re-run budget-failed items up to N
//                     times with doubled budgets
//   --fault-inject=SPEC  arm the deterministic fault injector, e.g.
//                     manifest_io=1 or alloc=%7 (testing only)
//   --fault-seed=N    seed for probabilistic fault clauses
//   --stats           print a JSON phase/counter report to stdout
//   --trace[=text]    stream trace events to stderr, human-readable
//   --trace=json      stream trace events to stderr as JSON lines
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/fault_injection.h"
#include "base/resource_guard.h"
#include "base/string_util.h"
#include "batch/batch_runner.h"
#include "checker/document_checker.h"
#include "core/consistency.h"
#include "core/diagnosis.h"
#include "core/sat_hierarchical.h"
#include "trace/sinks.h"
#include "trace/trace.h"
#include "xml/xml_parser.h"

namespace {

using namespace xmlverify;

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  xmlvc check <spec.dtd> <constraints.txt> "
               "[--witness <out.xml>] [--explain-core]\n"
               "  xmlvc validate <spec.dtd> <constraints.txt> <doc.xml>\n"
               "  xmlvc classify <spec.dtd> <constraints.txt>\n"
               "  xmlvc diagnose <spec.dtd> <constraints.txt>\n"
               "  xmlvc simplify <spec.dtd> <constraints.txt>\n"
               "  xmlvc --batch <manifest>\n"
               "(a single combined <spec.xvc> may replace the file pair)\n"
               "flags (any position):\n"
               "  --jobs=N           batch worker threads\n"
               "  --timeout=MS       per-check wall-clock budget (ms)\n"
               "  --memory-limit=MB  per-check tracked-memory ceiling\n"
               "  --max-depth=N      parser/recursion nesting ceiling\n"
               "  --retries=N        batch: retry budget failures with\n"
               "                     doubled budgets\n"
               "  --explain-core     check: on INCONSISTENT, also print a\n"
               "                     1-minimal inconsistent core\n"
               "  --fault-inject=SPEC  arm fault injection (testing)\n"
               "  --fault-seed=N     seed for %%P fault clauses\n"
               "  --stats            JSON phase/counter report on stdout\n"
               "  --trace[=text]     stream trace events to stderr\n"
               "  --trace=json       stream trace events as JSON lines\n");
  return 2;
}

// Budget-shaped global flags, threaded to every command. Each check
// (and each minimization or simplification) stamps `limits` afresh.
struct BudgetFlags {
  CheckLimits limits;
  int retries = 0;
  bool explain_core = false;  // check: minimize a core on INCONSISTENT
};

// Either two files (DTD + constraints) or one combined `.xvc` file
// with a `%%` separator line.
Result<Specification> LoadSpec(const std::string& dtd_path,
                               const std::string& constraints_path) {
  if (constraints_path.empty()) {
    ASSIGN_OR_RETURN(std::string combined, ReadFile(dtd_path));
    return Specification::ParseCombined(combined);
  }
  ASSIGN_OR_RETURN(std::string dtd_text, ReadFile(dtd_path));
  ASSIGN_OR_RETURN(std::string constraints_text, ReadFile(constraints_path));
  return Specification::Parse(dtd_text, constraints_text);
}

int RunCheck(const Specification& spec, const std::string& witness_path,
             const BudgetFlags& budget) {
  ConsistencyChecker checker(OptionsForOneCheck(budget.limits));
  Result<ConsistencyVerdict> verdict = checker.Check(spec);
  if (!verdict.ok()) {
    std::fprintf(stderr, "error: %s\n", verdict.status().ToString().c_str());
    return 2;
  }
  std::printf("%s\n", OutcomeName(verdict->outcome).c_str());
  if (!verdict->note.empty()) std::printf("note: %s\n", verdict->note.c_str());
  if (budget.explain_core &&
      verdict->outcome == ConsistencyOutcome::kInconsistent) {
    Result<ConstraintSet> core = MinimizeInconsistentCore(
        spec.dtd, spec.constraints, OptionsForOneCheck(budget.limits));
    if (core.ok()) {
      std::printf("minimal inconsistent core (%d constraints):\n%s",
                  core->size(), core->ToString(spec.dtd).c_str());
    } else {
      std::fprintf(stderr, "core minimization failed: %s\n",
                   core.status().ToString().c_str());
    }
  }
  if (verdict->witness.has_value() && !witness_path.empty()) {
    std::ofstream out(witness_path);
    out << verdict->witness->ToXml(spec.dtd);
    std::printf("witness written to %s\n", witness_path.c_str());
  }
  // Exit codes: 0 consistent, 1 inconsistent, 3 unknown, 4 deadline,
  // 5 resource-exhausted.
  switch (verdict->outcome) {
    case ConsistencyOutcome::kConsistent: return 0;
    case ConsistencyOutcome::kInconsistent: return 1;
    case ConsistencyOutcome::kUnknown: return 3;
    case ConsistencyOutcome::kDeadlineExceeded: return 4;
    case ConsistencyOutcome::kResourceExhausted: return 5;
  }
  return 2;
}

// The batch driver: one verdict line per manifest entry, in manifest
// order, then a '#'-prefixed summary. Exit code reflects the worst
// outcome in the batch: error > resource-exhausted > deadline >
// unknown > inconsistent.
int RunBatchCommand(const std::string& manifest_path, int jobs,
                    const BudgetFlags& budget, StatsRegistry* stats) {
  Result<std::string> manifest = ReadFile(manifest_path);
  if (!manifest.ok()) {
    std::fprintf(stderr, "error: %s\n", manifest.status().ToString().c_str());
    return 2;
  }
  size_t slash = manifest_path.find_last_of('/');
  std::string base_dir =
      slash == std::string::npos ? std::string() : manifest_path.substr(0, slash);
  Result<std::vector<BatchEntry>> entries =
      ParseBatchManifest(*manifest, base_dir);
  if (!entries.ok()) {
    std::fprintf(stderr, "error: %s\n", entries.status().ToString().c_str());
    return 2;
  }

  BatchOptions options;
  options.jobs = jobs;
  // Each item's limits are stamped when a worker picks it up.
  options.limits = budget.limits;
  options.retries = budget.retries;
  options.stats = stats;
  BatchResult result = RunBatch(*entries, options);

  for (size_t i = 0; i < result.items.size(); ++i) {
    const BatchEntry& entry = (*entries)[i];
    std::string label = entry.dtd_path;
    if (!entry.constraints_path.empty()) label += " " + entry.constraints_path;
    const BatchItem& item = result.items[i];
    if (!item.status.ok()) {
      std::printf("%s: ERROR: %s\n", label.c_str(),
                  item.status.ToString().c_str());
    } else {
      std::printf("%s: %s\n", label.c_str(),
                  OutcomeName(item.verdict.outcome).c_str());
    }
  }
  std::printf(
      "# checked %zu spec(s): %d consistent, %d inconsistent, %d unknown, "
      "%d deadline-exceeded, %d resource-exhausted, %d error(s) in %lld ms\n",
      result.items.size(), result.consistent, result.inconsistent,
      result.unknown, result.deadline_exceeded, result.resource_exhausted,
      result.errors, static_cast<long long>(result.wall_millis));
  if (result.retries > 0) {
    std::printf("# %d retry attempt(s), %d item(s) recovered\n",
                result.retries, result.retry_recovered);
  }
  if (result.errors > 0) return 2;
  if (result.resource_exhausted > 0) return 5;
  if (result.deadline_exceeded > 0) return 4;
  if (result.unknown > 0) return 3;
  if (result.inconsistent > 0) return 1;
  return 0;
}

int RunValidate(const Specification& spec, const std::string& doc_path) {
  Result<std::string> text = ReadFile(doc_path);
  if (!text.ok()) {
    std::fprintf(stderr, "error: %s\n", text.status().ToString().c_str());
    return 2;
  }
  Result<XmlTree> tree = ParseXmlDocument(*text, spec.dtd);
  if (!tree.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 tree.status().ToString().c_str());
    return 2;
  }
  Status valid = CheckDocument(*tree, spec.dtd, spec.constraints);
  if (valid.ok()) {
    std::printf("VALID\n");
    return 0;
  }
  std::printf("INVALID: %s\n", valid.message().c_str());
  return 1;
}

int RunClassify(const Specification& spec) {
  std::printf("class: %s\n",
              ConstraintClassName(spec.Classify()).c_str());
  std::printf("DTD: %s, %s, depth %s\n",
              spec.dtd.IsRecursive() ? "recursive" : "non-recursive",
              spec.dtd.IsNoStar() ? "no-star" : "with Kleene star",
              spec.dtd.IsRecursive()
                  ? "unbounded"
                  : std::to_string(spec.dtd.Depth().ValueOrDie()).c_str());
  if (spec.constraints.HasRelative()) {
    Result<RelativeClassification> rc =
        ClassifyRelative(spec.dtd, spec.constraints);
    if (rc.ok()) {
      std::printf("relative geometry: %s",
                  rc->hierarchical ? "hierarchical" : "NOT hierarchical");
      if (rc->hierarchical) {
        std::printf(", %d-local", rc->locality);
      } else {
        std::printf(" (%s)", rc->conflict.c_str());
      }
      std::printf("\n");
    } else {
      std::printf("relative geometry: %s\n",
                  rc.status().ToString().c_str());
    }
  }
  return 0;
}

int RunCommand(int argc, char** argv, const BudgetFlags& budget) {
  if (argc < 3) return Usage();
  std::string command = argv[1];
  // A spec is either one combined `.xvc` file or a DTD + constraints
  // file pair; remaining arguments follow the spec.
  std::string first = argv[2];
  bool combined = first.size() > 4 &&
                  first.compare(first.size() - 4, 4, ".xvc") == 0;
  int rest = combined ? 3 : 4;
  if (!combined && argc < 4) return Usage();
  Result<Specification> spec =
      LoadSpec(first, combined ? std::string() : argv[3]);
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  if (command == "check") {
    std::string witness_path;
    for (int arg = rest; arg + 1 < argc; ++arg) {
      if (std::string(argv[arg]) == "--witness") witness_path = argv[arg + 1];
    }
    return RunCheck(*spec, witness_path, budget);
  }
  if (command == "validate") {
    if (argc < rest + 1) return Usage();
    return RunValidate(*spec, argv[rest]);
  }
  if (command == "classify") return RunClassify(*spec);
  if (command == "simplify") {
    Result<ConstraintSet> pruned = RemoveRedundantConstraints(
        spec->dtd, spec->constraints, OptionsForOneCheck(budget.limits));
    if (!pruned.ok()) {
      std::fprintf(stderr, "error: %s\n", pruned.status().ToString().c_str());
      return 2;
    }
    int removed = spec->constraints.size() - pruned->size();
    std::printf("# %d redundant constraint(s) removed\n%s", removed,
                pruned->ToString(spec->dtd).c_str());
    return 0;
  }
  if (command == "diagnose") {
    Result<ConstraintSet> core = MinimizeInconsistentCore(
        spec->dtd, spec->constraints, OptionsForOneCheck(budget.limits));
    if (!core.ok()) {
      std::fprintf(stderr, "error: %s\n", core.status().ToString().c_str());
      switch (core.status().code()) {
        case StatusCode::kDeadlineExceeded: return 4;
        case StatusCode::kResourceExhausted: return 5;
        default: return 2;
      }
    }
    std::printf("minimal inconsistent core (%d constraints):\n%s",
                core->size(), core->ToString(spec->dtd).c_str());
    return 0;
  }
  return Usage();
}

}  // namespace

using namespace xmlverify;

int main(int argc, char** argv) {
  // Fault injection can be armed from the environment
  // (XMLVERIFY_FAULT_INJECT / XMLVERIFY_FAULT_SEED) so tests can
  // exercise failure paths without touching the command line; the
  // --fault-inject flag below overrides it.
  Status env_armed = FaultInjector::ArmFromEnv();
  if (!env_armed.ok()) {
    std::fprintf(stderr, "error: XMLVERIFY_FAULT_INJECT: %s\n",
                 env_armed.ToString().c_str());
    return 2;
  }

  // Global flags are accepted anywhere: strip them wherever they
  // appear, leaving the positional command line.
  bool stats = false;
  bool batch = false;
  int jobs = 0;
  BudgetFlags budget;
  std::string fault_spec;
  uint64_t fault_seed = 0;
  bool fault_armed = false;
  std::string trace_mode;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--stats") {
      stats = true;
    } else if (arg == "--batch") {
      batch = true;
    } else if (StartsWith(arg, "--jobs=")) {
      jobs = std::atoi(arg.c_str() + 7);
      if (jobs <= 0) {
        std::fprintf(stderr, "error: --jobs expects a positive integer\n");
        return 2;
      }
    } else if (StartsWith(arg, "--timeout=")) {
      budget.limits.timeout_millis = std::atoll(arg.c_str() + 10);
      if (budget.limits.timeout_millis <= 0) {
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
      budget.limits.memory_limit_bytes = megabytes * int64_t{1024} * 1024;
    } else if (StartsWith(arg, "--max-depth=")) {
      budget.limits.max_depth = std::atoi(arg.c_str() + 12);
      if (budget.limits.max_depth <= 0) {
        std::fprintf(stderr, "error: --max-depth expects a positive integer\n");
        return 2;
      }
      SetMaxParseDepth(budget.limits.max_depth);
    } else if (arg == "--explain-core") {
      budget.explain_core = true;
    } else if (StartsWith(arg, "--retries=")) {
      budget.retries = std::atoi(arg.c_str() + 10);
      if (budget.retries < 0) {
        std::fprintf(stderr,
                     "error: --retries expects a non-negative integer\n");
        return 2;
      }
    } else if (StartsWith(arg, "--fault-inject=")) {
      fault_spec = arg.substr(15);
      fault_armed = true;
    } else if (StartsWith(arg, "--fault-seed=")) {
      fault_seed = std::strtoull(arg.c_str() + 13, nullptr, 10);
    } else if (arg == "--trace" || arg == "--trace=text") {
      trace_mode = "text";
    } else if (arg == "--trace=json") {
      trace_mode = "json";
    } else if (StartsWith(arg, "--trace=")) {
      std::fprintf(stderr, "error: unknown trace format '%s' "
                   "(expected --trace=text or --trace=json)\n", arg.c_str());
      return 2;
    } else if (arg == "--witness") {
      // A command flag whose value follows it; RunCommand reads both.
      args.push_back(argv[i]);
      if (i + 1 < argc) args.push_back(argv[++i]);
    } else if (StartsWith(arg, "--")) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      args.push_back(argv[i]);
    }
  }

  if (fault_armed) {
    Status armed = FaultInjector::Arm(fault_spec, fault_seed);
    if (!armed.ok()) {
      std::fprintf(stderr, "error: --fault-inject: %s\n",
                   armed.ToString().c_str());
      return 2;
    }
  }

  StatsRegistry registry;
  std::unique_ptr<TraceSink> sink;
  if (trace_mode == "text") sink = std::make_unique<TextTraceSink>(std::cerr);
  if (trace_mode == "json") sink = std::make_unique<JsonTraceSink>(std::cerr);
  // Install the trace session only when a report was requested; with
  // no session the instrumented library runs at full speed.
  std::unique_ptr<TraceSession> session;
  if (stats || sink != nullptr) {
    session = std::make_unique<TraceSession>(&registry, sink.get());
  }

  int code;
  if (batch) {
    // `xmlvc --batch <manifest>`: the one positional argument left
    // after flag stripping is the manifest. Workers install their own
    // sessions, so the registry is passed directly rather than relying
    // on this (main) thread's session.
    if (args.size() != 2) {
      code = Usage();
    } else {
      code = RunBatchCommand(args[1], jobs, budget,
                             (stats || sink != nullptr) ? &registry : nullptr);
    }
  } else {
    code = RunCommand(static_cast<int>(args.size()), args.data(), budget);
  }
  if (stats) std::fputs(registry.ToJson().c_str(), stdout);
  return code;
}
