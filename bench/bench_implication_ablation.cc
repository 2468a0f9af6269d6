// Ablation for the layered implication engine (core/implication_engine.h):
// the same pool of implication questions is answered twice, once with
// the syntactic quick tier enabled (production configuration, memo off
// so the cache cannot cheat) and once with the quick tier disabled so
// every question pays for the full SAT-based contrapositive encoding.
// Every pool question is chosen to be quick-tier decidable — verbatim
// occurrence, inclusion-closure transitivity, reflexivity, the
// singleton-root rule, and regular-path containment — and full-tier
// decidable, so both configurations return the same verdict and the
// ratio isolates what the quick tier saves.
//
// Reports per-question mean latencies and the median speedup across
// questions (the layered-engine PR's acceptance number: >= 5x), and
// writes the machine-readable snapshot to BENCH_implication.json
// (--out=PATH to override; see docs/performance.md).
//
// Like bench_serve this is a standalone driver, not a google-benchmark
// binary: the quantity of interest is a cross-configuration ratio per
// question, which needs paired measurements rather than independent
// tight loops.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "base/string_util.h"
#include "core/implication_engine.h"
#include "core/specification.h"
#include "regex/regex.h"

namespace xmlverify {
namespace {

struct BenchConfig {
  int quick_reps = 512;  // quick-tier calls are microsecond-scale
  int full_reps = 12;    // full-tier calls pay for the solver
  std::string out = "BENCH_implication.json";
};

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One pool entry: a closed question the engine answers through
// whichever tiers its options enable.
struct Question {
  std::string name;
  std::string rule;  // quick-tier rule expected to fire
  Specification spec;
  std::function<Result<ImplicationAnswer>(const ImplicationChecker&)> ask;
};

// Sigma = a chain of unary inclusions t0.v <= t1.v <= ... ; phi asks
// for the endpoints. Quick tier: inclusion-closure transitivity.
Question ChainQuestion(int length) {
  std::string dtd_text = "<!ELEMENT r (";
  std::string constraints;
  for (int t = 0; t < length; ++t) {
    if (t > 0) dtd_text += ",";
    dtd_text += StrCat("t", std::to_string(t), "+");
  }
  dtd_text += ")>\n";
  for (int t = 0; t < length; ++t) {
    dtd_text += "<!ATTLIST t" + std::to_string(t) + " v>\n";
    if (t + 1 < length) {
      constraints += StrCat("t", std::to_string(t), ".v <= t",
                            std::to_string(t + 1), ".v\n");
    }
  }
  Question question;
  question.name = "closure-chain-" + std::to_string(length);
  question.rule = "closure";
  question.spec = Specification::Parse(dtd_text, constraints).ValueOrDie();
  int first = question.spec.dtd.TypeId("t0").ValueOrDie();
  int last = question.spec.dtd.TypeId(StrCat("t", std::to_string(length - 1)))
                 .ValueOrDie();
  AbsoluteInclusion phi{first, {"v"}, last, {"v"}};
  question.ask = [spec = question.spec,
                  phi](const ImplicationChecker& engine) {
    return engine.CheckInclusion(spec.dtd, spec.constraints, phi);
  };
  return question;
}

// Sigma contains phi outright (one key, one inclusion variant).
std::vector<Question> VerbatimQuestions() {
  Specification spec = Specification::Parse(R"(
<!ELEMENT r (a+, b+, c+)>
<!ATTLIST a v>
<!ATTLIST b v>
<!ATTLIST c v>
)",
                                            R"(
a.v -> a
b.v <= c.v
c.v -> c
)")
                           .ValueOrDie();
  int a = spec.dtd.TypeId("a").ValueOrDie();
  int b = spec.dtd.TypeId("b").ValueOrDie();
  int c = spec.dtd.TypeId("c").ValueOrDie();
  Question key{"verbatim-key", "verbatim", spec, nullptr};
  key.ask = [spec, a](const ImplicationChecker& engine) {
    return engine.CheckKey(spec.dtd, spec.constraints,
                           AbsoluteKey{a, {"v"}});
  };
  Question inclusion{"verbatim-inclusion", "verbatim", spec, nullptr};
  inclusion.ask = [spec, b, c](const ImplicationChecker& engine) {
    return engine.CheckInclusion(spec.dtd, spec.constraints,
                                 AbsoluteInclusion{b, {"v"}, c, {"v"}});
  };
  Question reflexive{"reflexivity", "reflexivity", spec, nullptr};
  reflexive.ask = [spec, b](const ImplicationChecker& engine) {
    return engine.CheckInclusion(spec.dtd, spec.constraints,
                                 AbsoluteInclusion{b, {"v"}, b, {"v"}});
  };
  return {key, inclusion, reflexive};
}

// phi keys the root type: at most one root element exists, so the key
// is vacuous under the empty Sigma.
Question SingletonRootQuestion() {
  Question question;
  question.name = "singleton-root";
  question.rule = "singleton-root";
  question.spec = Specification::Parse(
                      "<!ELEMENT r (a*)>\n<!ATTLIST r id>\n<!ATTLIST a v>\n",
                      "")
                      .ValueOrDie();
  int r = question.spec.dtd.TypeId("r").ValueOrDie();
  question.ask = [spec = question.spec,
                  r](const ImplicationChecker& engine) {
    return engine.CheckKey(spec.dtd, spec.constraints,
                           AbsoluteKey{r, {"id"}});
  };
  return question;
}

// A global regular key over r._*.item implies the key over one
// branch's items: L(r.br0.item) is contained in L(r._*.item).
Question PathContainmentQuestion() {
  Question question;
  question.name = "regular-path-containment";
  question.rule = "path-containment";
  question.spec =
      Specification::Parse(R"(
<!ELEMENT r (br0, br1, br2)>
<!ELEMENT br0 (item+)>
<!ELEMENT br1 (item+)>
<!ELEMENT br2 (item+)>
<!ATTLIST item id>
)",
                           "r._*.item.id -> r._*.item\n")
          .ValueOrDie();
  auto resolve = [spec = question.spec](const std::string& name) {
    return spec.dtd.FindType(name);
  };
  Regex branch = ParseRegex("r.br0.item", resolve).ValueOrDie();
  int item = question.spec.dtd.TypeId("item").ValueOrDie();
  question.ask = [spec = question.spec, branch,
                  item](const ImplicationChecker& engine) {
    return engine.CheckKey(spec.dtd, spec.constraints,
                           RegularKey{branch, item, "id"});
  };
  return question;
}

struct Measurement {
  std::string name;
  std::string rule;
  double quick_us = 0;
  double full_us = 0;
  double speedup = 0;
};

// Mean microseconds per call over `reps` calls. Returns a negative
// value if any call fails or answers "not implied" (every pool
// question is a true implication; a wrong verdict voids the ratio).
double TimeQuestion(const Question& question, const ImplicationChecker& engine,
                    int reps) {
  int64_t begin = NowMicros();
  for (int i = 0; i < reps; ++i) {
    Result<ImplicationAnswer> answer = question.ask(engine);
    if (!answer.ok() || !answer->implied) return -1;
  }
  return static_cast<double>(NowMicros() - begin) /
         static_cast<double>(reps);
}

int Run(const BenchConfig& config) {
  std::vector<Question> pool;
  for (Question& q : VerbatimQuestions()) pool.push_back(std::move(q));
  pool.push_back(SingletonRootQuestion());
  pool.push_back(PathContainmentQuestion());
  for (int length : {4, 8, 12}) pool.push_back(ChainQuestion(length));

  // Production configuration minus the memo (a memo hit would measure
  // the cache, not the quick tier) vs the full encoding alone.
  ImplicationEngineOptions quick_options;
  quick_options.use_memo = false;
  ImplicationEngineOptions full_options;
  full_options.use_quick = false;
  full_options.use_memo = false;
  ImplicationChecker quick_engine(quick_options);
  ImplicationChecker full_engine(full_options);

  std::vector<Measurement> measurements;
  for (const Question& question : pool) {
    // The pool contract: the quick tier settles the question with the
    // expected rule, and the full tier agrees.
    Result<ImplicationAnswer> quick_answer = question.ask(quick_engine);
    if (!quick_answer.ok() ||
        quick_answer->tier != ImplicationTier::kQuick ||
        quick_answer->rule != question.rule) {
      std::fprintf(stderr, "%s: quick tier did not fire rule %s\n",
                   question.name.c_str(), question.rule.c_str());
      return 1;
    }
    Measurement m;
    m.name = question.name;
    m.rule = question.rule;
    m.quick_us = TimeQuestion(question, quick_engine, config.quick_reps);
    m.full_us = TimeQuestion(question, full_engine, config.full_reps);
    if (m.quick_us < 0 || m.full_us < 0) {
      std::fprintf(stderr, "%s: tiers disagree or a check failed\n",
                   question.name.c_str());
      return 1;
    }
    m.speedup = m.quick_us > 0 ? m.full_us / m.quick_us
                               : m.full_us / 0.01;  // sub-us quick calls
    measurements.push_back(m);
  }

  std::vector<double> speedups;
  for (const Measurement& m : measurements) speedups.push_back(m.speedup);
  std::sort(speedups.begin(), speedups.end());
  double median = speedups[speedups.size() / 2];

  std::printf("implication ablation: %zu questions, quick_reps=%d "
              "full_reps=%d\n",
              pool.size(), config.quick_reps, config.full_reps);
  for (const Measurement& m : measurements) {
    std::printf("  %-26s %-18s quick %8.2fus  full %10.2fus  %8.1fx\n",
                m.name.c_str(), m.rule.c_str(), m.quick_us, m.full_us,
                m.speedup);
  }
  std::printf("  median speedup: %.1fx (acceptance: >= 5x)\n", median);

  std::ofstream out(config.out);
  out << "{\n"
      << "  \"bench\": \"implication\",\n"
      << "  \"config\": {\"questions\": " << measurements.size()
      << ", \"quick_reps\": " << config.quick_reps
      << ", \"full_reps\": " << config.full_reps << "},\n"
      << "  \"questions\": [\n";
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"rule\": \"%s\", "
                  "\"quick_us\": %.2f, \"full_us\": %.2f, "
                  "\"speedup\": %.1f}%s\n",
                  m.name.c_str(), m.rule.c_str(), m.quick_us, m.full_us,
                  m.speedup, i + 1 < measurements.size() ? "," : "");
    out << line;
  }
  char tail[96];
  std::snprintf(tail, sizeof(tail),
                "  ],\n  \"median_speedup\": %.1f,\n  \"gate\": 5.0\n}\n",
                median);
  out << tail;
  std::printf("  wrote %s\n", config.out.c_str());
  return median < 5.0 ? 2 : 0;
}

}  // namespace
}  // namespace xmlverify

int main(int argc, char** argv) {
  xmlverify::BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value("--quick-reps=")) {
      config.quick_reps = std::atoi(v);
    } else if (const char* v = value("--full-reps=")) {
      config.full_reps = std::atoi(v);
    } else if (const char* v = value("--out=")) {
      config.out = v;
    } else {
      std::fprintf(stderr,
                   "usage: bench_implication_ablation [--quick-reps=N] "
                   "[--full-reps=N] [--out=PATH]\n");
      return 1;
    }
  }
  return xmlverify::Run(config);
}
