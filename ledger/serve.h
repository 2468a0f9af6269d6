// Inputs and the open-loop generator of the serve workloads.
#ifndef LEDGER_SERVE_H_
#define LEDGER_SERVE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/verdict.h"
#include "ledger/ledger.h"

namespace ledger {

enum RequestClass {
  kRepeat,     // byte-exact repeat of a working-set spec (raw tier)
  kRespell,    // new spelling of a working-set spec (canonical tier)
  kEdit,       // one constraint added or dropped (quick-tier confirm)
  kFresh,      // a spec the server has never seen (serve_hot)
  kUnique,     // serve_cold: a new spec sent once
  kDuplicate,  // serve_cold: a new spec sent on both connections at once
  kNumClasses
};
const char* ClassName(int cls);

/// A spec whose verdict the benchmark knows before sending it.
struct KnownSpec {
  std::string text;  // exact request text
  xmlverify::ConsistencyOutcome expected;
  /// Witness XML of a CONSISTENT working-set spec, as the server keeps
  /// it for its incremental path; empty elsewhere.
  std::string witness;
};

/// One request of an open-loop stream.
struct Planned {
  int64_t due_ns = 0;  // scheduled send time, from the phase start
  int conn = 0;        // 0 or 1
  int spec = 0;        // index into the stream's spec table
  int cls = kRepeat;
  bool witness = false;
  std::string line;  // the request line, newline included
};

struct Stream {
  std::vector<KnownSpec> specs;
  std::vector<Planned> requests;
  /// Generator findings that make the inputs unusable (a respelling
  /// that does not canonicalize to its base, an edit the quick tier
  /// cannot confirm, a reference that contradicts monotonicity).
  std::vector<std::string> problems;
  /// Distinct specs the timed stream sends (for redundant solves).
  int64_t distinct_new = 0;
};

/// serve_hot inputs: the working set (sent during set-up) and a timed
/// stream of `count` requests at `rate` per second.
struct HotInputs {
  std::vector<KnownSpec> working_set;
  Stream stream;
};
HotInputs BuildHotInputs(uint64_t seed, int64_t count, double rate);

/// Share of each request class in `requests`, and the share of requests
/// that are half of an in-flight duplicate pair.
std::array<double, kNumClasses> ClassShares(const std::vector<Planned>& requests);

/// All request lines of `stream`, concatenated (determinism checks).
std::string StreamBytes(const Stream& stream);

}  // namespace ledger

#endif  // LEDGER_SERVE_H_
