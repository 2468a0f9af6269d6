#include "difftest/difftest.h"

#include <atomic>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

namespace xmlverify {
namespace {

// Result of one (seed, class) grid cell, written into its own slot
// by whichever worker claims it.
struct Cell {
  bool disagreed = false;
  std::optional<ConsistencyOutcome> consensus;
  Disagreement disagreement;  // filled only when `disagreed`
};

OracleOptions WithSolverPipeline(OracleOptions oracle, bool fast) {
  oracle.solver.use_presolve = fast;
  oracle.solver.use_sparse_simplex = fast;
  oracle.solver.warm_start = fast;
  return oracle;
}

bool Definitive(ConsistencyOutcome outcome) {
  return outcome == ConsistencyOutcome::kConsistent ||
         outcome == ConsistencyOutcome::kInconsistent;
}

// Cross-checks `spec` under the configured solver pipeline(s). For
// kBoth the legacy engine's report is merged into the fast one, and
// any definitive verdict that differs between the pipelines (overall
// consensus or any individual procedure) becomes a disagreement. Only
// definitive verdicts are compared: which non-verdict limit fires
// first legitimately varies across engines.
CrossCheckReport CheckUnderSolverPath(const Specification& spec,
                                      const DifftestOptions& options) {
  if (options.solver_path == SolverPath::kLegacy) {
    return CrossCheckSpecification(
        spec, WithSolverPipeline(options.oracle, /*fast=*/false));
  }
  CrossCheckReport fast = CrossCheckSpecification(
      spec, WithSolverPipeline(options.oracle, /*fast=*/true));
  if (options.solver_path == SolverPath::kFast) return fast;

  CrossCheckReport legacy = CrossCheckSpecification(
      spec, WithSolverPipeline(options.oracle, /*fast=*/false));
  CrossCheckReport merged = fast;
  for (const std::string& reason : legacy.disagreements) {
    merged.disagreements.push_back("legacy: " + reason);
  }
  if (fast.consensus.has_value() && legacy.consensus.has_value() &&
      *fast.consensus != *legacy.consensus) {
    merged.disagreements.push_back(
        "solver-path divergence: consensus fast=" +
        OutcomeName(*fast.consensus) +
        " legacy=" + OutcomeName(*legacy.consensus));
  }
  for (const ProcedureRun& fast_run : fast.runs) {
    if (!fast_run.ran || !Definitive(fast_run.verdict.outcome)) continue;
    for (const ProcedureRun& legacy_run : legacy.runs) {
      if (legacy_run.name != fast_run.name || !legacy_run.ran) continue;
      if (Definitive(legacy_run.verdict.outcome) &&
          legacy_run.verdict.outcome != fast_run.verdict.outcome) {
        merged.disagreements.push_back(
            "solver-path divergence: " + fast_run.name +
            " fast=" + OutcomeName(fast_run.verdict.outcome) +
            " legacy=" + OutcomeName(legacy_run.verdict.outcome));
      }
      break;
    }
  }
  if (!merged.consensus.has_value()) merged.consensus = legacy.consensus;
  return merged;
}

Cell RunCell(uint64_t seed, DifftestClass cls, const DifftestOptions& options) {
  Cell cell;
  Result<GeneratedSpec> generated = GenerateSpec(seed, cls, options.generator);
  if (!generated.ok()) {
    cell.disagreed = true;
    cell.disagreement.seed = seed;
    cell.disagreement.cls = cls;
    cell.disagreement.reasons.push_back("generator error: " +
                                       generated.status().message());
    return cell;
  }

  CrossCheckReport report = CheckUnderSolverPath(generated->spec, options);
  cell.consensus = report.consensus;
  if (options.impl_mode) {
    std::vector<std::string> impl_reasons =
        CrossCheckImplication(generated->spec, options.impl);
    report.disagreements.insert(report.disagreements.end(),
                                impl_reasons.begin(), impl_reasons.end());
  }
  if (report.agreed()) return cell;

  cell.disagreed = true;
  cell.disagreement.seed = seed;
  cell.disagreement.cls = cls;
  cell.disagreement.reasons = report.disagreements;
  cell.disagreement.spec_text = generated->text;
  if (options.shrink) {
    SpecPredicate still_disagrees = [&options](const Specification& spec) {
      if (!CheckUnderSolverPath(spec, options).agreed()) return true;
      return options.impl_mode &&
             !CrossCheckImplication(spec, options.impl).empty();
    };
    ShrinkOutcome shrunk = ShrinkSpecification(generated->spec,
                                               still_disagrees,
                                               options.shrinker);
    cell.disagreement.shrunk_text = shrunk.text;
    cell.disagreement.shrink_rounds = shrunk.rounds;
  }
  return cell;
}

void Indent(const std::string& text, std::ostringstream* out) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) *out << "    " << line << "\n";
}

}  // namespace

std::string DifftestReport::Summary() const {
  std::ostringstream out;
  out << "class  specs  consistent  inconsistent  unknown  disagree\n";
  ClassTally total;
  for (const ClassTally& t : tallies) {
    std::string name = DifftestClassName(t.cls);
    name.resize(5, ' ');
    out << name << "  " << t.specs << "  " << t.consistent << "  "
        << t.inconsistent << "  " << t.unknown << "  " << t.disagreements
        << "\n";
    total.specs += t.specs;
    total.consistent += t.consistent;
    total.inconsistent += t.inconsistent;
    total.unknown += t.unknown;
    total.disagreements += t.disagreements;
  }
  out << "total  " << total.specs << "  " << total.consistent << "  "
      << total.inconsistent << "  " << total.unknown << "  "
      << total.disagreements << "\n";

  for (const Disagreement& d : disagreements) {
    out << "\ndisagreement seed=" << d.seed
        << " class=" << DifftestClassName(d.cls) << "\n";
    for (const std::string& reason : d.reasons) {
      out << "  reason: " << reason << "\n";
    }
    if (!d.spec_text.empty()) {
      out << "  spec:\n";
      Indent(d.spec_text, &out);
    }
    if (!d.shrunk_text.empty()) {
      out << "  shrunk (" << d.shrink_rounds << " rounds):\n";
      Indent(d.shrunk_text, &out);
    }
  }

  out << "\nRESULT: " << (disagreements.empty() ? "AGREE" : "DISAGREE") << " ("
      << total.specs << " specs, " << total.disagreements
      << " disagreements)\n";
  return out.str();
}

DifftestReport RunDifftest(const DifftestOptions& options) {
  std::vector<DifftestClass> classes = options.classes;
  if (classes.empty()) classes = AllDifftestClasses();

  const size_t num_seeds =
      options.num_seeds > 0 ? static_cast<size_t>(options.num_seeds) : 0;
  const size_t grid = num_seeds * classes.size();
  std::vector<Cell> cells(grid);

  int jobs = options.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  if (static_cast<size_t>(jobs) > grid) jobs = static_cast<int>(grid);

  // Seed-major grid, atomic cursor, one slot per cell: any worker can
  // claim any cell without affecting the (deterministic) report.
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    std::unique_ptr<TraceSession> session;
    if (options.stats != nullptr) {
      session = std::make_unique<TraceSession>(options.stats);
    }
    while (true) {
      const size_t index = next.fetch_add(1);
      if (index >= grid) break;
      const uint64_t seed = options.start_seed + index / classes.size();
      const DifftestClass cls = classes[index % classes.size()];
      cells[index] = RunCell(seed, cls, options);
    }
  };
  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(jobs);
    for (int job = 0; job < jobs; ++job) threads.emplace_back(worker);
    for (std::thread& thread : threads) thread.join();
  }

  DifftestReport report;
  report.tallies.resize(classes.size());
  for (size_t c = 0; c < classes.size(); ++c) report.tallies[c].cls = classes[c];
  for (size_t index = 0; index < grid; ++index) {
    Cell& cell = cells[index];
    ClassTally& tally = report.tallies[index % classes.size()];
    ++tally.specs;
    ++report.specs;
    if (cell.consensus.has_value() &&
        *cell.consensus == ConsistencyOutcome::kConsistent) {
      ++tally.consistent;
    } else if (cell.consensus.has_value() &&
               *cell.consensus == ConsistencyOutcome::kInconsistent) {
      ++tally.inconsistent;
    } else {
      ++tally.unknown;
    }
    if (cell.disagreed) {
      ++tally.disagreements;
      report.disagreements.push_back(std::move(cell.disagreement));
    }
  }
  return report;
}

}  // namespace xmlverify
