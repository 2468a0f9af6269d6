// Workload `figures`: every decidable cell of the paper's Figures 3/4 at
// two or three sizes, plus the worked examples, checked in process by
// ConsistencyChecker::Check (default options) in a closed loop on one
// thread. Expected verdicts come from sources that share no code with
// the solver: DPLL, the QBF evaluator, a subset-sum DP written here, the
// construction itself, and the paper text.
#include <algorithm>
#include <numeric>

#include "core/consistency.h"
#include "ledger/figures.h"
#include "ledger/layers.h"
#include "reductions/cnf.h"
#include "reductions/cnf_depth2.h"
#include "reductions/pde_reduction.h"
#include "reductions/qbf.h"
#include "reductions/qbf_hrc.h"
#include "reductions/qbf_regular.h"
#include "reductions/subset_sum.h"

namespace ledger {

using xmlverify::ConsistencyChecker;
using xmlverify::ConsistencyOutcome;
using xmlverify::Specification;

namespace {

constexpr double kCheckLimitSeconds = 1.0;
constexpr uint64_t kManifestSeed = 7;

ConsistencyOutcome FromBool(bool consistent) {
  return consistent ? ConsistencyOutcome::kConsistent
                    : ConsistencyOutcome::kInconsistent;
}

Specification MustParse(const std::string& dtd, const std::string& constraints) {
  return Specification::Parse(dtd, constraints).ValueOrDie();
}

// Subset-sum reachability by dynamic programming over the target.
bool SubsetSumReachable(int64_t target, const std::vector<int64_t>& items) {
  if (target < 0) return false;
  std::vector<char> reachable(static_cast<size_t>(target) + 1, 0);
  reachable[0] = 1;
  for (int64_t item : items) {
    for (int64_t sum = target; sum >= item; --sum) {
      if (reachable[sum - item]) reachable[sum] = 1;
    }
  }
  return reachable[target] != 0;
}

// PDE family of the Theorem 3.1 reduction: x0 >= size, x0 <= x1 * x2,
// x1 <= cap, x2 <= bound. Solvable iff cap * bound >= size.
xmlverify::PdeSystem PdeInstance(int size, int64_t cap, int64_t bound) {
  xmlverify::PdeSystem system;
  system.num_variables = 3;
  system.rows.push_back({{1, 0, 0}, false, size});
  system.rows.push_back({{0, 1, 0}, true, cap});
  system.rows.push_back({{0, 0, 1}, true, bound});
  system.prequadratics.push_back({0, 1, 2});
  return system;
}

// One element type with a k-attribute primary key whose attributes are
// foreign keys into a pool of exactly two values: 2^k distinct tuples
// exist, so `elements` p-children fit iff elements <= 2^k.
Specification KeyWidth(int k, int elements) {
  std::string attrs;
  std::string constraints = "p[";
  for (int a = 0; a < k; ++a) {
    attrs += " a" + std::to_string(a);
    if (a > 0) constraints += ",";
    constraints += "a" + std::to_string(a);
  }
  constraints += "] -> p\n";
  for (int a = 0; a < k; ++a) {
    constraints += "fk p.a" + std::to_string(a) + " <= q.v\n";
  }
  std::string dtd = "<!ELEMENT r (q,q";
  for (int e = 0; e < elements; ++e) dtd += ",p";
  dtd += ")>\n<!ATTLIST p" + attrs + ">\n<!ATTLIST q v>\n";
  return MustParse(dtd, constraints);
}

// School-style regular specification with `branches` course branches,
// each a foreign key into the student registry: consistent by
// construction (every course can be taken by registered students).
Specification SchoolFamily(int branches) {
  std::string dtd =
      "<!ELEMENT r (students, courses)>\n"
      "<!ELEMENT students (student+)>\n"
      "<!ELEMENT student (record)>\n"
      "<!ELEMENT record EMPTY>\n"
      "<!ATTLIST record id>\n";
  std::string courses;
  std::string constraints = "r._*.record.id -> r._*.record\n";
  for (int b = 0; b < branches; ++b) {
    std::string course = "course" + std::to_string(b);
    if (!courses.empty()) courses += ",";
    courses += course;
    dtd += "<!ELEMENT " + course + " (takenBy" + std::to_string(b) +
           "+)>\n<!ATTLIST takenBy" + std::to_string(b) + " sid>\n";
    constraints += "fk r.courses." + course + ".takenBy" + std::to_string(b) +
                   ".sid <= r._*.student.record.id\n";
  }
  dtd += "<!ELEMENT courses (" + courses + ")>\n";
  return MustParse(dtd, constraints);
}

// `levels` nested scopes, each with a relative key and fanout 2:
// relative keys alone are always satisfiable.
Specification NestedScopes(int levels) {
  std::string dtd = "<!ELEMENT s0 (s1, s1)>\n";
  std::string constraints;
  for (int level = 1; level < levels; ++level) {
    dtd += "<!ELEMENT s" + std::to_string(level) + " (s" +
           std::to_string(level + 1) + ", s" + std::to_string(level + 1) +
           ")>\n";
  }
  dtd += "<!ELEMENT s" + std::to_string(levels) + " EMPTY>\n";
  for (int level = 1; level <= levels; ++level) {
    dtd += "<!ATTLIST s" + std::to_string(level) + " v>\n";
    constraints += "s" + std::to_string(level - 1) + "(s" +
                   std::to_string(level) + ".v -> s" + std::to_string(level) +
                   ")\n";
  }
  return MustParse(dtd, constraints);
}

// The paper's worked examples (Section 1: school; Section 4: the
// country/province geography; Figure 2(a): the library catalog).
const char kSchoolDtd[] =
    "<!ELEMENT r (students, courses, faculty, labs)>\n"
    "<!ELEMENT students (student+)>\n"
    "<!ELEMENT courses (cs340, cs108, cs434)>\n"
    "<!ELEMENT faculty (prof+)>\n"
    "<!ELEMENT labs (dbLab, pcLab)>\n"
    "<!ELEMENT student (record)>\n"
    "<!ELEMENT prof (record)>\n"
    "<!ELEMENT cs340 (takenBy+)>\n"
    "<!ELEMENT cs108 (takenBy+)>\n"
    "<!ELEMENT cs434 (takenBy+)>\n"
    "<!ELEMENT dbLab (acc+)>\n"
    "<!ELEMENT pcLab (acc+)>\n"
    "<!ATTLIST record id>\n"
    "<!ATTLIST takenBy sid>\n"
    "<!ATTLIST acc num>\n";
const char kSchoolConstraints[] =
    "r._*.(student|prof).record.id -> r._*.(student|prof).record\n"
    "r._*.cs434.takenBy.sid -> r._*.cs434.takenBy\n"
    "fk r._*.cs434.takenBy.sid <= r._*.student.record.id\n"
    "fk r._*.dbLab.acc.num <= r._*.cs434.takenBy.sid\n";
const char kSchoolBreak[] = "fk r.faculty.prof.record.id <= r._*.dbLab.acc.num\n";
const char kGeographyDtd[] =
    "<!ELEMENT db (country+)>\n"
    "<!ELEMENT country (province+, capital+)>\n"
    "<!ELEMENT province (capital, city*)>\n"
    "<!ATTLIST country name>\n"
    "<!ATTLIST province name>\n"
    "<!ATTLIST capital inProvince>\n";
const char kGeographyConstraints[] =
    "country.name -> country\n"
    "country(province.name -> province)\n"
    "country(capital.inProvince -> capital)\n"
    "country(capital.inProvince <= province.name)\n";
const char kLibraryDtd[] =
    "<!ELEMENT library (book+)>\n"
    "<!ELEMENT book (author+, chapter+)>\n"
    "<!ELEMENT chapter (section*)>\n"
    "<!ATTLIST book isbn>\n"
    "<!ATTLIST author name>\n"
    "<!ATTLIST chapter number>\n"
    "<!ATTLIST section title>\n";
const char kLibraryConstraints[] =
    "library(book.isbn -> book)\n"
    "book(author.name -> author)\n"
    "book(chapter.number -> chapter)\n"
    "chapter(section.title -> section)\n";

}  // namespace

std::vector<FigureInstance> BuildManifest() {
  // The random families are drawn from one fixed stream, so instance
  // difficulty does not vary with the run seed (a single CNF or QBF
  // draw moves a check by 3-10x); the run seed orders the checks.
  Rng rng{kManifestSeed};
  std::vector<FigureInstance> manifest;
  auto add = [&](std::string cell, std::string size,
                 xmlverify::Result<Specification> spec,
                 ConsistencyOutcome expected, std::string source) {
    manifest.push_back({cell + "/" + size, std::move(spec).ValueOrDie(),
                        expected, std::move(source)});
  };

  // Theorem 3.5a: CNF-SAT through depth-2 DTDs (NP-complete cell).
  for (int n : {6, 8}) {
    xmlverify::CnfFormula formula =
        xmlverify::CnfFormula::Random(n, 2 * n, 3, rng.Next());
    add("cnf_depth2", "n" + std::to_string(n),
        xmlverify::CnfToDepth2Spec(formula),
        FromBool(formula.Solve().has_value()), "dpll");
  }
  // Two-constraint SUBSET-SUM (Theorem 3.5, constraint-bounded).
  for (int bits : {6, 8, 10}) {
    xmlverify::SubsetSumInstance instance;
    int64_t sum = 0;
    for (int i = 0; i < bits; ++i) {
      int64_t item = 1 + static_cast<int64_t>(rng.Next() % ((1u << bits) - 1));
      instance.items.push_back(item);
      sum += item;
    }
    instance.target = 1 + static_cast<int64_t>(rng.Next() % sum);
    add("subset_sum", "b" + std::to_string(bits),
        xmlverify::SubsetSumToSpec(instance),
        FromBool(SubsetSumReachable(instance.target, instance.items)),
        "subset-sum-dp");
  }
  // Theorem 3.1: the PDE reduction, solvable and unsolvable members.
  for (int size : {4, 8}) {
    int64_t cap = 1;
    while (cap * cap < size) ++cap;
    add("pde", "sat" + std::to_string(size),
        xmlverify::PdeToSpec(PdeInstance(size, cap, size)),
        ConsistencyOutcome::kConsistent, "construction");
    add("pde", "unsat" + std::to_string(size),
        xmlverify::PdeToSpec(PdeInstance(size, 1, size - 1)),
        ConsistencyOutcome::kInconsistent, "construction");
  }
  // Theorem 3.1: key width (prequadratic chain length k).
  for (int k : {3, 4}) {
    add("key_width", "fit" + std::to_string(k), KeyWidth(k, (1 << k) - 1),
        ConsistencyOutcome::kConsistent, "construction");
    add("key_width", "over" + std::to_string(k), KeyWidth(k, (1 << k) + 1),
        ConsistencyOutcome::kInconsistent, "construction");
  }
  // Theorem 3.4b: QBF through regular-path constraints.
  for (int m : {2, 3}) {
    xmlverify::QbfFormula formula =
        xmlverify::QbfFormula::Random(m, 3, 2, rng.Next());
    add("qbf_regular", "m" + std::to_string(m),
        xmlverify::QbfToRegularSpec(formula), FromBool(formula.Evaluate()),
        "qbf-eval");
  }
  // Regular AC: the school family.
  for (int branches : {2, 4}) {
    add("school_family", "b" + std::to_string(branches),
        SchoolFamily(branches), ConsistencyOutcome::kConsistent,
        "construction");
  }
  // HRC: nested scopes.
  for (int levels : {4, 6}) {
    add("nested_hrc", "l" + std::to_string(levels), NestedScopes(levels),
        ConsistencyOutcome::kConsistent, "construction");
  }
  // Theorem 4.4: QBF through 2-HRC.
  for (int m : {3, 4}) {
    xmlverify::QbfFormula formula =
        xmlverify::QbfFormula::Random(m, 3, 2, rng.Next());
    add("qbf_hrc", "m" + std::to_string(m), xmlverify::QbfTo2HrcSpec(formula),
        FromBool(formula.Evaluate()), "qbf-eval");
  }
  // The paper's worked examples.
  add("example", "school", MustParse(kSchoolDtd, kSchoolConstraints),
      ConsistencyOutcome::kConsistent, "paper");
  add("example", "school_inconsistent",
      MustParse(kSchoolDtd, std::string(kSchoolConstraints) + kSchoolBreak),
      ConsistencyOutcome::kInconsistent, "paper");
  add("example", "geography", MustParse(kGeographyDtd, kGeographyConstraints),
      ConsistencyOutcome::kInconsistent, "paper");
  add("example", "library_fig2a", MustParse(kLibraryDtd, kLibraryConstraints),
      ConsistencyOutcome::kConsistent, "paper");
  return manifest;
}

namespace {

struct LoopResult {
  std::vector<std::vector<double>> times_ms;  // per instance
  std::vector<double> all_ms;
  int64_t checks = 0;
  int64_t decided = 0;
  int64_t errors = 0;
  double wall_s = 0;
};

// One closed loop: passes over a seeded permutation of the manifest
// until `seconds` have elapsed (always at least one pass).
LoopResult ClosedLoop(const std::vector<FigureInstance>& manifest,
                      const ConsistencyChecker& checker, double seconds,
                      Rng* rng, RunResult* result) {
  LoopResult loop;
  loop.times_ms.resize(manifest.size());
  std::vector<size_t> order(manifest.size());
  std::iota(order.begin(), order.end(), 0);
  int64_t start = NowNanos();
  do {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng->Below(static_cast<int>(i))]);
    }
    for (size_t index : order) {
      const FigureInstance& instance = manifest[index];
      int64_t begin = NowNanos();
      xmlverify::Result<xmlverify::ConsistencyVerdict> verdict =
          checker.Check(instance.spec);
      double ms = static_cast<double>(NowNanos() - begin) / 1e6;
      loop.checks += 1;
      loop.times_ms[index].push_back(ms);
      loop.all_ms.push_back(ms);
      if (!verdict.ok()) {
        loop.errors += 1;
        result->Fail(instance.name + ": " + verdict.status().message());
        continue;
      }
      if (verdict->outcome != instance.expected) {
        result->Fail(instance.name + ": verdict " +
                     xmlverify::OutcomeName(verdict->outcome) + ", expected " +
                     xmlverify::OutcomeName(instance.expected) + " (" +
                     instance.source + ")");
        continue;
      }
      if (ms <= kCheckLimitSeconds * 1e3) loop.decided += 1;
    }
  } while (SecondsSince(start) < seconds);
  loop.wall_s = SecondsSince(start);
  return loop;
}

double InstanceGeomean(const LoopResult& loop,
                       const std::vector<FigureInstance>& manifest,
                       int verdict_filter) {
  std::vector<double> medians;
  for (size_t i = 0; i < manifest.size(); ++i) {
    if (loop.times_ms[i].empty()) continue;
    bool consistent = manifest[i].expected == ConsistencyOutcome::kConsistent;
    if (verdict_filter == 1 && !consistent) continue;
    if (verdict_filter == 0 && consistent) continue;
    medians.push_back(Median(loop.times_ms[i]));
  }
  return GeoMean(medians);
}

}  // namespace

RunResult RunFigures(const Options& options) {
  RunResult result;
  std::vector<FigureInstance> manifest = BuildManifest();
  if (options.plant_wrong_verdict) {
    ConsistencyOutcome& expected = manifest.front().expected;
    expected = expected == ConsistencyOutcome::kConsistent
                   ? ConsistencyOutcome::kInconsistent
                   : ConsistencyOutcome::kConsistent;
  }
  bool both = false;
  for (const FigureInstance& instance : manifest) {
    both |= instance.expected != manifest.front().expected;
  }
  if (!both) result.Fail("manifest lacks one of the two verdicts");

  const ConsistencyChecker checker;
  Rng order_rng{options.seed ^ 0x6a09e667f3bcc909ULL};

  // Set-up: one untimed manifest pass fills the process-wide memos.
  // Repeated from cold memos so set-up time is a median, not one draw.
  std::vector<double> setups;
  for (int repeat = 0; repeat < 3; ++repeat) {
    ClearProcessMemos();
    int64_t begin = NowNanos();
    for (const FigureInstance& instance : manifest) {
      (void)checker.Check(instance.spec);
    }
    setups.push_back(SecondsSince(begin));
  }
  result.metrics.Set("setup_s", Median(setups), "s");

  if (!options.trace) {
    LoopResult loop =
        ClosedLoop(manifest, checker, options.seconds, &order_rng, &result);
    result.attempted = loop.checks;
    result.failed = loop.errors;
    Report& m = result.metrics;
    m.Set("verdict_p50_ms", Percentile(loop.all_ms, 0.5), "ms");
    m.Set("verdict_p90_ms", Percentile(loop.all_ms, 0.9), "ms");
    m.Set("verdict_geomean_ms", InstanceGeomean(loop, manifest, -1), "ms");
    double rate = static_cast<double>(loop.checks) / loop.wall_s;
    m.Set("verdicts_per_s", rate, "1/s");
    // A closed loop on one thread sustains exactly its completion rate.
    m.Set("sustained_rps", rate, "req/s");
    m.Set("decided_share",
          static_cast<double>(loop.decided) / static_cast<double>(loop.checks),
          "ratio");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("figures: %zu instances, %lld checks, p%.0f supported\n",
                manifest.size(), static_cast<long long>(loop.checks),
                100 * SupportedTail(loop.all_ms.size()));
    for (size_t i = 0; i < manifest.size(); ++i) {
      std::printf("  %-32s %-13s %10.3f ms median of %zu (%s)\n",
                  manifest[i].name.c_str(),
                  xmlverify::OutcomeName(manifest[i].expected).c_str(),
                  Median(loop.times_ms[i]), loop.times_ms[i].size(),
                  manifest[i].source.c_str());
    }
    return result;
  }

  // Traced run: half the time untraced, half with a TraceSession, then
  // the decomposition replay of every instance.
  LoopResult plain =
      ClosedLoop(manifest, checker, options.seconds / 2, &order_rng, &result);
  xmlverify::StatsRegistry registry;
  LoopResult traced;
  {
    xmlverify::TraceSession session(&registry);
    traced = ClosedLoop(manifest, checker, options.seconds / 2, &order_rng,
                        &result);
  }
  result.attempted = plain.checks + traced.checks;
  result.failed = plain.errors + traced.errors;
  Report& m = result.metrics;
  double plain_geo = InstanceGeomean(plain, manifest, -1);
  m.Set("trace.overhead_share",
        InstanceGeomean(traced, manifest, -1) / plain_geo - 1, "ratio");
  m.Set("core.check.consistent_geomean_ms", InstanceGeomean(plain, manifest, 1),
        "ms");
  m.Set("core.check.inconsistent_geomean_ms",
        InstanceGeomean(plain, manifest, 0), "ms");
  m.Set("bench.samples", static_cast<double>(plain.checks), "count");

  SpanLog log;
  LayerTotals totals;
  for (size_t i = 0; i < manifest.size(); ++i) {
    const FigureInstance& instance = manifest[i];
    ConsistencyOutcome facade;
    {
      ScopedSpan span(&log, "core.check", static_cast<int64_t>(i));
      xmlverify::Result<xmlverify::ConsistencyVerdict> verdict =
          checker.Check(instance.spec);
      facade = verdict.ok() ? verdict->outcome : ConsistencyOutcome::kUnknown;
    }
    xmlverify::Result<ConsistencyOutcome> replayed =
        DecomposedCheck(instance.spec, static_cast<int64_t>(i), &log, &totals);
    if (!replayed.ok() || *replayed != facade) {
      result.Fail(instance.name + ": decomposition replay disagrees with Check");
    }
  }
  double e2e = log.RootTotal("core.check");
  ReportLayerCalls(log, DecompositionLayers(), e2e, &m);
  ReportLayerCalls(log, {"core.check"}, e2e, &m);
  double covered = 0;
  for (const auto& [name, agg] : log.Aggregates()) {
    if (name == "core.check" || name == "ilp.presolve" || name == "ilp.root_lp") {
      continue;
    }
    covered += agg.self_total;
  }
  m.Set("core.layer_coverage", e2e > 0 ? covered / e2e : 0, "ratio");
  ReportLayerTotals(totals, registry, traced.checks, &m);
  log.WriteJsonLines(options.out_dir, "figures", options.seed);
  return result;
}

}  // namespace ledger
