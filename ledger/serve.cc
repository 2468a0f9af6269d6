// Workloads `serve_hot` and `serve_cold`: an in-process ServeServer
// (jobs=2, other options default) driven over loopback by an open-loop
// generator: one sender thread and one receiver per connection, two
// connections. Latency runs from each request's scheduled send time to
// reading its response, so a stall is charged to every request it
// delays.
#include "ledger/serve.h"

#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "checker/document_checker.h"
#include "core/canonical.h"
#include "core/consistency.h"
#include "core/implication_engine.h"
#include "core/specification.h"
#include "difftest/oracle.h"
#include "difftest/spec_generator.h"
#include "ledger/layers.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/verdict_cache.h"
#include "xml/xml_parser.h"

namespace ledger {

using xmlverify::ConsistencyOutcome;
using xmlverify::Specification;

namespace {

constexpr int kWorkingSet = 256;
constexpr uint64_t kWorkingSetSeed = 1;
constexpr double kHotRate = 5000;
constexpr double kHotLimitMs = 5;
constexpr double kHotRoundSeconds = 0.5;  // see RunServeHot
constexpr double kColdRate = 250;
constexpr double kColdLimitMs = 100;
constexpr double kColdTailLimitMs = 20;
constexpr int kServerJobs = 2;
constexpr int64_t kSetUpWindow = 32;
constexpr double kWitnessShare = 0.05;
constexpr double kPairShare = 0.10;
constexpr size_t kCacheCapacity = 1 << 16;  // VerdictCache per-tier default
// The server keeps the last four definitive verdicts of each DTD for its
// incremental path. The set-up pass leaves each base spec's verdict
// among them, and with at most three edits of one base per stream it
// stays there, so every edit is confirmable from it.
constexpr size_t kEditsPerBase = 3;
// The sender sleeps until this long before a send, then spins: a plain
// sleep_until ran 60-70 us late at p99, more than a whole cache hit.
// Cold requests take milliseconds, so their sender spins less and
// leaves the cores to the server near saturation.
constexpr int64_t kHotSpinNanos = 150000;
constexpr int64_t kColdSpinNanos = 50000;
// A failed request counts as missing every latency limit.
constexpr double kFailedLatencyMs = 1e6;

const double kLadderRates[] = {350, 500, 700, 1000, 1400, 2000, 2800, 4000, 5600};
// Shares of --seconds: the nominal rounds together, and each ladder step
// (longer from kLongStepRate on, where the server nears saturation and
// a step's p90 decides the crossing).
constexpr int kColdRounds = 9;
constexpr double kColdNominalShare = 0.45;
constexpr double kColdStepShare = 0.025;
constexpr double kColdLongStepShare = 0.1;
constexpr double kLongStepRate = 1400;

// Checker effort above which a difftest draw is left out of the serve
// workloads: a few percent of draws, the slowest of which (5-130 ms)
// would alone decide whether a cold ladder step keeps up. Bounded-search
// candidates count as subproblems.
constexpr int64_t kMaxReferencePivots = 800;
constexpr int64_t kMaxReferenceNodes = 300;
constexpr int64_t kMaxReferenceVariables = 150;
constexpr int64_t kMaxReferenceSubproblems = 1000;

// The in-process checker's verdict, or kUnknown when it is not
// definitive or the spec is solver-heavy (see above). The node and
// candidate caps stop a heavy check early, so leaving a spec out stays
// a property of the spec, not of the machine's speed. `witness_xml`, if
// given, receives the witness of a CONSISTENT verdict.
ConsistencyOutcome ReferenceVerdict(const Specification& spec,
                                    std::string* witness_xml = nullptr) {
  xmlverify::ConsistencyChecker::Options options;
  options.solver.max_nodes = kMaxReferenceNodes;
  options.bounded.max_candidates = kMaxReferenceSubproblems;
  options.degrade_on_exhaustion = false;
  xmlverify::Result<xmlverify::ConsistencyVerdict> verdict =
      xmlverify::ConsistencyChecker(options).Check(spec);
  if (!verdict.ok() || verdict->stats.lp_pivots > kMaxReferencePivots ||
      verdict->stats.num_variables > kMaxReferenceVariables ||
      verdict->stats.subproblems > kMaxReferenceSubproblems) {
    return ConsistencyOutcome::kUnknown;
  }
  if (witness_xml != nullptr && verdict->witness.has_value()) {
    *witness_xml = verdict->witness->ToXml(spec.dtd);
  }
  return verdict->outcome;
}

// References for many specs on up to three threads (outside any timed
// phase; the memos they fill are cleared before set-up).
std::vector<ConsistencyOutcome> ReferenceVerdicts(
    const std::vector<Specification>& specs) {
  std::vector<ConsistencyOutcome> out(specs.size(),
                                      ConsistencyOutcome::kUnknown);
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i; (i = next.fetch_add(1)) < specs.size();) {
      out[i] = ReferenceVerdict(specs[i]);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) threads.emplace_back(work);
  for (std::thread& thread : threads) thread.join();
  return out;
}

std::string RequestLine(int64_t id, const std::string& text, bool witness) {
  std::string line = "{\"id\":\"q" + std::to_string(id) +
                     "\",\"spec\":" + xmlverify::trace::JsonQuote(text);
  if (witness) line += ",\"witness\":true";
  line += "}\n";
  return line;
}

// A seeded stream of difftest specs: the k-th draw uses class k mod 5.
class SpecSource {
 public:
  SpecSource(uint64_t seed, xmlverify::SpecGeneratorOptions options)
      : seed_(seed), options_(options) {}
  std::optional<xmlverify::GeneratedSpec> Next() {
    uint64_t k = cursor_++;
    std::vector<xmlverify::DifftestClass> classes =
        xmlverify::AllDifftestClasses();
    xmlverify::Result<xmlverify::GeneratedSpec> generated =
        xmlverify::GenerateSpec(seed_ * 1000003 + k, classes[k % classes.size()],
                                options_);
    if (!generated.ok()) return std::nullopt;
    return std::move(generated).value();
  }

 private:
  uint64_t seed_;
  xmlverify::SpecGeneratorOptions options_;
  uint64_t cursor_ = 0;
};

// Variant `n` of a canonical spec text: an XML comment in the DTD part,
// a '#' comment among the constraints, or extra whitespace, each with a
// counter so every variant is byte-distinct.
std::string Respell(const std::string& text, int64_t n) {
  size_t first_line = text.find('\n') + 1;  // after "root <name>"
  size_t separator = text.find("%%\n");
  std::string marker = std::to_string(n);
  switch (n % 3) {
    case 0:
      return text.substr(0, first_line) + "<!-- rev " + marker + " -->\n" +
             text.substr(first_line);
    case 1:
      return text.substr(0, separator + 3) + "# revision " + marker + "\n" +
             text.substr(separator + 3);
    default: {
      std::string spaced;
      for (char c : text) {
        spaced += c;
        if (c == '\n') spaced += "  ";
      }
      return spaced + "\n# r" + marker + "\n";
    }
  }
}

std::vector<std::string> ConstraintLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t position = text.find("%%\n") + 3;
  while (position < text.size()) {
    size_t end = text.find('\n', position);
    if (end == std::string::npos) end = text.size();
    if (end > position) lines.push_back(text.substr(position, end - position));
    position = end + 1;
  }
  return lines;
}

// The single-constraint edits of one working-set spec that the server's
// incremental path confirms from the base's own verdict, by the tests
// ServeServer::TryIncremental makes: a CONSISTENT spec loses one
// constraint line (the old constraints quick-imply the new ones, and
// the old witness passes the document checker on them); an
// INCONSISTENT spec gains a key (the new constraints quick-imply the
// old ones). At most kEditsPerBase, in seeded order.
std::vector<KnownSpec> PlanEdits(const KnownSpec& base,
                                 const Specification& spec, Rng* rng,
                                 std::unordered_set<std::string>* seen,
                                 std::vector<std::string>* problems) {
  const xmlverify::Dtd& dtd = spec.dtd;
  const bool consistent = base.expected == ConsistencyOutcome::kConsistent;
  std::vector<Specification> candidates;
  std::optional<xmlverify::XmlTree> witness;
  if (consistent) {
    // Without a witness the server confirms no edit of the spec.
    if (base.witness.empty()) return {};
    xmlverify::Result<xmlverify::XmlTree> tree =
        xmlverify::ParseXmlDocument(base.witness, dtd);
    if (!tree.ok()) {
      problems->push_back("a reference witness does not parse: " + base.text);
      return {};
    }
    witness.emplace(std::move(tree).value());
    std::vector<std::string> lines = ConstraintLines(base.text);
    for (size_t skip = 0; lines.size() > 1 && skip < lines.size(); ++skip) {
      std::string text = base.text.substr(0, base.text.find("%%\n") + 3);
      for (size_t i = 0; i < lines.size(); ++i) {
        if (i != skip) text += lines[i] + "\n";
      }
      xmlverify::Result<Specification> parsed =
          Specification::ParseCombined(text);
      if (parsed.ok()) candidates.push_back(std::move(parsed).value());
    }
  } else {
    for (int type = 0; type < dtd.num_element_types(); ++type) {
      for (const std::string& attr : dtd.Attributes(type)) {
        candidates.push_back(spec);
        candidates.back().constraints.Add(xmlverify::AbsoluteKey{type, {attr}});
      }
    }
  }
  for (size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng->Below(static_cast<int>(i))]);
  }

  const xmlverify::ImplicationChecker quick;
  std::vector<KnownSpec> edits;
  for (const Specification& next : candidates) {
    if (edits.size() == kEditsPerBase) break;
    if (!next.constraints.Validate(dtd).ok()) continue;
    std::string text = xmlverify::CanonicalSpecText(next);
    if (seen->count(text) > 0) continue;
    bool confirmable =
        consistent
            ? quick.QuickImpliesAll(dtd, spec.constraints, next.constraints) &&
                  xmlverify::CheckDocument(*witness, dtd, next.constraints)
                      .ok()
            : quick.QuickImpliesAll(dtd, next.constraints, spec.constraints);
    if (!confirmable) continue;
    ConsistencyOutcome reference = ReferenceVerdict(next);
    if (!Definitive(reference)) continue;
    if (reference != base.expected) {
      problems->push_back("an edit the quick tier confirms changed the "
                          "reference verdict: " + text);
      continue;
    }
    seen->insert(text);
    edits.push_back({text, reference, ""});
  }
  return edits;
}

}  // namespace

const char* ClassName(int cls) {
  static const char* kNames[] = {"repeat", "respell", "edit",
                                 "fresh",  "unique",  "duplicate"};
  return cls >= 0 && cls < kNumClasses ? kNames[cls] : "?";
}

std::array<double, kNumClasses> ClassShares(
    const std::vector<Planned>& requests) {
  std::array<double, kNumClasses> shares{};
  for (const Planned& request : requests) shares[request.cls] += 1;
  if (!requests.empty()) {
    for (double& share : shares) share /= static_cast<double>(requests.size());
  }
  return shares;
}

std::string StreamBytes(const Stream& stream) {
  std::string bytes;
  for (const Planned& request : stream.requests) bytes += request.line;
  return bytes;
}

HotInputs BuildHotInputs(uint64_t seed, int64_t count, double rate) {
  HotInputs inputs;
  Stream& stream = inputs.stream;
  Rng rng{seed ^ 0xb5ad4eceda1ce2a9ULL};

  // Working set: definitive difftest specs, each on a DTD of its own so
  // edits of different specs never share the server's per-DTD history.
  // It comes from one fixed stream, as the figures manifest does: the
  // set-up pass solves all 256 specs, and drawing them from the run
  // seed moved set-up time by 40% between seeds. The run seed draws
  // the request stream.
  xmlverify::SpecGeneratorOptions ws_options;
  ws_options.max_extra_types = 5;
  ws_options.max_constraints = 4;
  SpecSource ws_source(kWorkingSetSeed, ws_options);
  std::unordered_set<std::string> seen;
  std::set<std::string> dtds;
  std::vector<Specification> parsed_bases;
  while (static_cast<int>(inputs.working_set.size()) < kWorkingSet) {
    std::optional<xmlverify::GeneratedSpec> generated = ws_source.Next();
    if (!generated || generated->spec.constraints.empty()) continue;
    if (seen.count(generated->text) > 0) continue;
    std::string dtd = generated->spec.dtd.ToString();
    if (dtds.count(dtd) > 0) continue;
    std::string witness;
    ConsistencyOutcome reference = ReferenceVerdict(generated->spec, &witness);
    if (!Definitive(reference)) continue;
    seen.insert(generated->text);
    dtds.insert(dtd);
    inputs.working_set.push_back({generated->text, reference, witness});
    parsed_bases.push_back(std::move(generated->spec));
  }
  stream.specs = inputs.working_set;

  // Class plan: exact counts, seeded positions.
  int64_t fresh = std::llround(0.01 * static_cast<double>(count));
  int64_t edits = std::llround(0.14 * static_cast<double>(count));
  int64_t respells = std::llround(0.15 * static_cast<double>(count));
  std::vector<int> classes(static_cast<size_t>(count), kRepeat);
  size_t at = 0;
  for (int64_t i = 0; i < fresh; ++i) classes[at++] = kFresh;
  for (int64_t i = 0; i < edits; ++i) classes[at++] = kEdit;
  for (int64_t i = 0; i < respells; ++i) classes[at++] = kRespell;
  for (size_t i = classes.size(); i > 1; --i) {
    std::swap(classes[i - 1], classes[rng.Below(static_cast<int>(i))]);
  }

  // Edits round-robin over the working set, so two edits of one spec
  // are a full pass over the bases apart in the stream.
  std::vector<std::vector<KnownSpec>> per_base;
  for (int b = 0; b < kWorkingSet; ++b) {
    per_base.push_back(PlanEdits(inputs.working_set[b], parsed_bases[b], &rng,
                                 &seen, &stream.problems));
  }
  std::vector<KnownSpec> edit_specs;
  for (size_t round = 0; static_cast<int64_t>(edit_specs.size()) < edits;
       ++round) {
    size_t before = edit_specs.size();
    for (std::vector<KnownSpec>& list : per_base) {
      if (round < list.size() &&
          static_cast<int64_t>(edit_specs.size()) < edits) {
        edit_specs.push_back(std::move(list[round]));
      }
    }
    if (edit_specs.size() == before) break;
  }
  if (static_cast<int64_t>(edit_specs.size()) < edits) {
    stream.problems.push_back("the working set offers only " +
                              std::to_string(edit_specs.size()) +
                              " confirmable edits, " + std::to_string(edits) +
                              " needed");
  }

  // Fresh specs: never seen, on DTDs outside the working set.
  std::vector<KnownSpec> fresh_specs;
  SpecSource fresh_source(seed ^ 0x5bd1e995ULL, {});
  while (static_cast<int64_t>(fresh_specs.size()) < fresh) {
    std::optional<xmlverify::GeneratedSpec> generated = fresh_source.Next();
    if (!generated || seen.count(generated->text) > 0) continue;
    if (dtds.count(generated->spec.dtd.ToString()) > 0) continue;
    ConsistencyOutcome reference = ReferenceVerdict(generated->spec);
    if (!Definitive(reference)) continue;
    seen.insert(generated->text);
    fresh_specs.push_back({generated->text, reference, ""});
  }

  size_t next_edit = 0;
  size_t next_fresh = 0;
  for (int64_t i = 0; i < count; ++i) {
    Planned request;
    request.due_ns = static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
    request.conn = static_cast<int>(i % 2);
    request.cls = classes[i];
    int base = rng.Below(kWorkingSet);
    switch (request.cls) {
      case kRepeat:
        request.spec = base;
        break;
      case kRespell: {
        std::string text = Respell(inputs.working_set[base].text, i);
        stream.specs.push_back({text, inputs.working_set[base].expected, ""});
        request.spec = static_cast<int>(stream.specs.size()) - 1;
        break;
      }
      case kEdit:
        if (next_edit >= edit_specs.size()) {
          request.cls = kRepeat;
          request.spec = base;
          break;
        }
        stream.specs.push_back(edit_specs[next_edit++]);
        request.spec = static_cast<int>(stream.specs.size()) - 1;
        stream.distinct_new += 1;
        break;
      default:
        stream.specs.push_back(fresh_specs[next_fresh++]);
        request.spec = static_cast<int>(stream.specs.size()) - 1;
        stream.distinct_new += 1;
        break;
    }
    const KnownSpec& spec = stream.specs[request.spec];
    request.witness = spec.expected == ConsistencyOutcome::kConsistent &&
                      rng.Uniform() < kWitnessShare;
    request.line = RequestLine(i, spec.text, request.witness);
    stream.requests.push_back(std::move(request));
  }

  // Every respelling must canonicalize to its base.
  std::unordered_map<std::string, std::string> canonical_of;
  for (const KnownSpec& spec : inputs.working_set) {
    canonical_of[spec.text] = spec.text;
  }
  for (const Planned& request : stream.requests) {
    if (request.cls != kRespell) continue;
    const std::string& text = stream.specs[request.spec].text;
    xmlverify::Result<Specification> parsed =
        Specification::ParseCombined(text);
    std::string canonical =
        parsed.ok() ? xmlverify::CanonicalSpecText(*parsed) : std::string();
    if (canonical_of.count(canonical) == 0) {
      stream.problems.push_back("respelling does not canonicalize to a "
                                "working-set spec: " + text);
      break;
    }
  }
  if (static_cast<size_t>(kWorkingSet + count) > kCacheCapacity) {
    stream.problems.push_back("stream would overflow the verdict cache");
  }
  return inputs;
}

namespace {

// Generates serve_cold streams: every spec new, deduplicated by
// canonical text across all streams of one run.
class ColdGenerator {
 public:
  explicit ColdGenerator(uint64_t seed)
      : source_(seed ^ 0x94d049bb133111ebULL, {}),
        rng_{seed ^ 0xd6e8feb86659fd93ULL} {}

  Stream Next(int64_t count, double rate, int64_t first_id) {
    // Draw specs until the stream is full (a pair takes two requests).
    std::vector<Specification> specs;
    std::vector<std::string> texts;
    std::vector<bool> paired;
    int64_t requests = 0;
    while (requests < count) {
      std::optional<xmlverify::GeneratedSpec> generated = source_.Next();
      if (!generated || seen_.count(generated->text) > 0) continue;
      seen_.insert(generated->text);
      bool pair = requests + 2 <= count && rng_.Uniform() < kPairShare;
      specs.push_back(std::move(generated->spec));
      texts.push_back(std::move(generated->text));
      paired.push_back(pair);
      requests += pair ? 2 : 1;
    }
    std::vector<ConsistencyOutcome> references = ReferenceVerdicts(specs);
    Stream stream;
    int64_t slot = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
      // Specs without a definitive reference are left out of the stream
      // (their slot stays empty), so no request's answer is unknown.
      if (!Definitive(references[i])) {
        slot += paired[i] ? 2 : 1;
        continue;
      }
      stream.specs.push_back({texts[i], references[i], ""});
      stream.distinct_new += 1;
      int spec = static_cast<int>(stream.specs.size()) - 1;
      bool witness = references[i] == ConsistencyOutcome::kConsistent &&
                     rng_.Uniform() < kWitnessShare;
      int64_t due = static_cast<int64_t>(static_cast<double>(slot) * 1e9 / rate);
      for (int copy = 0; copy < (paired[i] ? 2 : 1); ++copy) {
        Planned request;
        request.due_ns = due;
        request.conn = paired[i] ? copy : static_cast<int>(slot % 2);
        request.spec = spec;
        request.cls = paired[i] ? kDuplicate : kUnique;
        request.witness = witness;
        int64_t id = first_id + static_cast<int64_t>(stream.requests.size());
        request.line = RequestLine(id, texts[i], witness);
        stream.requests.push_back(std::move(request));
      }
      slot += paired[i] ? 2 : 1;
    }
    total_ += stream.distinct_new;
    if (total_ > static_cast<int64_t>(kCacheCapacity)) {
      stream.problems.push_back("cold specs would overflow the verdict cache");
    }
    return stream;
  }

 private:
  SpecSource source_;
  Rng rng_;
  std::unordered_set<std::string> seen_;
  int64_t total_ = 0;
};

// ------------------------------------------------------------ sockets

// A connection of the open loop. Its receivers timestamp each chunk as
// it arrives, so they read the raw socket, which ServeClient keeps
// private; the set-up pass uses ServeClient.
int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Receivers wake at least this often to notice their deadline.
  timeval timeout{0, 50000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// A JSON string field of a response line ("" when absent).
std::string StringField(const std::string& line, const char* key) {
  std::string needle = std::string("\"") + key + "\":\"";
  size_t at = line.find(needle);
  if (at == std::string::npos) return std::string();
  std::string out;
  for (size_t i = at + needle.size(); i < line.size(); ++i) {
    char c = line[i];
    if (c == '"') break;
    if (c != '\\' || i + 1 >= line.size()) {
      out += c;
      continue;
    }
    char e = line[++i];
    switch (e) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u':
        if (i + 4 < line.size()) {
          out += static_cast<char>(std::stoi(line.substr(i + 1, 4), nullptr, 16));
          i += 4;
        }
        break;
      default: out += e; break;
    }
  }
  return out;
}

int64_t ResponseId(const std::string& line) {
  size_t at = line.find("\"id\":\"q");
  if (at == std::string::npos) return -1;
  int64_t id = 0;
  bool digits = false;
  for (size_t i = at + 7; i < line.size() && line[i] >= '0' && line[i] <= '9';
       ++i) {
    id = id * 10 + (line[i] - '0');
    digits = true;
  }
  return digits ? id : -1;
}

// --------------------------------------------------------- open loop

struct Observed {
  int64_t sent = 0;
  int64_t received = 0;
  std::string response;
};

struct Phase {
  int64_t start = 0;
  std::vector<Observed> observed;
  int64_t unmatched = 0;
};

// Sends `stream` on schedule from now and collects every response
// until `drain_seconds` after the last due time.
Phase RunOpenLoop(const int fds[2], const Stream& stream, int64_t first_id,
                  double drain_seconds, int64_t spin_nanos) {
  Phase phase;
  const size_t n = stream.requests.size();
  phase.observed.resize(n);
  int64_t expected[2] = {0, 0};
  for (const Planned& request : stream.requests) expected[request.conn] += 1;
  int64_t last_due = n == 0 ? 0 : stream.requests.back().due_ns;
  phase.start = NowNanos() + 2000000;  // receivers settle first
  const int64_t deadline =
      phase.start + last_due + static_cast<int64_t>(drain_seconds * 1e9);
  std::atomic<int64_t> unmatched{0};
  auto receive = [&](int conn) {
    std::string carry;
    char chunk[65536];
    int64_t got = 0;
    while (got < expected[conn] && NowNanos() < deadline) {
      ssize_t r = ::recv(fds[conn], chunk, sizeof(chunk), 0);
      int64_t now = NowNanos();
      if (r == 0) break;
      if (r < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
        break;
      }
      carry.append(chunk, static_cast<size_t>(r));
      size_t begin = 0;
      for (size_t nl; (nl = carry.find('\n', begin)) != std::string::npos;
           begin = nl + 1) {
        std::string line = carry.substr(begin, nl - begin);
        int64_t index = ResponseId(line) - first_id;
        if (index < 0 || index >= static_cast<int64_t>(n) ||
            phase.observed[index].received != 0) {
          unmatched.fetch_add(1);
          continue;
        }
        phase.observed[index].received = now;
        phase.observed[index].response = std::move(line);
        ++got;
      }
      carry.erase(0, begin);
    }
  };
  std::thread receivers[2] = {std::thread(receive, 0), std::thread(receive, 1)};
  for (size_t i = 0; i < n; ++i) {
    const Planned& request = stream.requests[i];
    int64_t due = phase.start + request.due_ns;
    int64_t wait = due - NowNanos();
    if (wait > spin_nanos) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait - spin_nanos));
    }
    int64_t now = NowNanos();
    while (now < due) now = NowNanos();
    // The lag is how late the send started; the syscall itself (which
    // on loopback also delivers the bytes) is part of the latency.
    if (SendAll(fds[request.conn], request.line)) phase.observed[i].sent = now;
  }
  for (std::thread& receiver : receivers) receiver.join();
  phase.unmatched = unmatched.load();
  return phase;
}

// ------------------------------------------------------- evaluation

struct Evaluation {
  std::vector<double> latency_ms;  // per request; failures at the sentinel
  std::array<std::vector<double>, kNumClasses> by_class;
  std::vector<double> lag_us;
  int64_t attempted = 0;
  int64_t verdicts = 0;
  int64_t decided = 0;  // definitive, correct and within the limit
  int64_t errors = 0;  // error responses, sheds, send failures, timeouts
  int64_t witnesses = 0;
  double wall_s = 0;
};

// Pools the evaluation of one more round into `into`.
void Merge(const Evaluation& from, Evaluation* into) {
  auto append = [](const std::vector<double>& a, std::vector<double>* b) {
    b->insert(b->end(), a.begin(), a.end());
  };
  append(from.latency_ms, &into->latency_ms);
  for (int cls = 0; cls < kNumClasses; ++cls) {
    append(from.by_class[cls], &into->by_class[cls]);
  }
  append(from.lag_us, &into->lag_us);
  into->attempted += from.attempted;
  into->verdicts += from.verdicts;
  into->decided += from.decided;
  into->errors += from.errors;
  into->witnesses += from.witnesses;
  into->wall_s += from.wall_s;
}

Evaluation Evaluate(const Stream& stream, const Phase& phase, double limit_ms,
                    RunResult* result) {
  Evaluation eval;
  if (phase.unmatched > 0) {
    result->Fail(std::to_string(phase.unmatched) +
                 " responses matched no outstanding request");
  }
  std::unordered_map<int, Specification> parsed;
  int64_t last_received = phase.start;
  for (size_t i = 0; i < stream.requests.size(); ++i) {
    const Planned& request = stream.requests[i];
    const Observed& observed = phase.observed[i];
    const KnownSpec& spec = stream.specs[request.spec];
    eval.attempted += 1;
    int64_t due = phase.start + request.due_ns;
    if (observed.sent != 0) {
      eval.lag_us.push_back(static_cast<double>(observed.sent - due) / 1e3);
    }
    double latency = kFailedLatencyMs;
    bool ok = false;
    if (observed.sent == 0 || observed.received == 0) {
      eval.errors += 1;
    } else if (observed.response.find("\"error\":") != std::string::npos) {
      eval.errors += 1;
    } else {
      last_received = std::max(last_received, observed.received);
      std::string verdict = StringField(observed.response, "verdict");
      eval.verdicts += 1;
      if (verdict != xmlverify::OutcomeName(spec.expected)) {
        result->Fail("request q" + std::to_string(i) + " (" +
                     ClassName(request.cls) + "): verdict " + verdict +
                     ", reference " + xmlverify::OutcomeName(spec.expected));
      } else {
        latency = static_cast<double>(observed.received - due) / 1e6;
        ok = true;
      }
      if (ok && request.witness) {
        // Replay the returned witness through the document checker.
        auto it = parsed.find(request.spec);
        if (it == parsed.end()) {
          it = parsed
                   .emplace(request.spec,
                            Specification::ParseCombined(spec.text).ValueOrDie())
                   .first;
        }
        std::string xml = StringField(observed.response, "witness");
        xmlverify::Result<xmlverify::XmlTree> tree =
            xmlverify::ParseXmlDocument(xml, it->second.dtd);
        eval.witnesses += 1;
        if (!tree.ok() || !xmlverify::CheckDocument(*tree, it->second.dtd,
                                                    it->second.constraints)
                               .ok()) {
          result->Fail("witness of q" + std::to_string(i) +
                       " fails replay through ParseXmlDocument+CheckDocument");
        }
      }
    }
    if (ok && latency <= limit_ms) eval.decided += 1;
    eval.latency_ms.push_back(latency);
    eval.by_class[request.cls].push_back(latency);
  }
  eval.wall_s = static_cast<double>(last_received - phase.start) / 1e9;
  return eval;
}

// ------------------------------------------------------------ server

// Returns freed heap memory of every malloc arena to the system between
// rounds. Each round's server threads may pick other arenas, so without
// this the run's peak RSS grows with how many arenas happened to be
// touched (up to +-20% between runs) instead of with one round's needs.
void ReleaseFreedMemory() { malloc_trim(0); }

// Pins the calling thread to one half of the cores (0: server, 1:
// generator); a no-op on fewer than four cores.
void PinThisThread(int half) {
  int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = half * cores / 2; cpu < (half + 1) * cores / 2; ++cpu) {
    CPU_SET(cpu, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

struct LiveServer {
  std::unique_ptr<xmlverify::ServeServer> server;
  int fds[2] = {-1, -1};
  LiveServer() = default;
  ~LiveServer() { Close(); }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;
  void Close() {
    for (int& fd : fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    if (server) server->Shutdown();
    server.reset();
  }
};

// Starts a server and connects both connections; with `working_set`,
// also sends it once, over two ServeClient connections of its own, and
// checks verdicts. The pass is pipelined, at most
// kSetUpWindow requests in flight per connection (well inside the
// server's 256-slot queue), so it is bound by the workers' solves rather
// than by one wake-up per request. Returns the seconds until the first
// timed request could be sent.
double SetUp(xmlverify::StatsRegistry* stats,
             const std::vector<KnownSpec>* working_set, LiveServer* live,
             RunResult* result) {
  int64_t begin = NowNanos();
  xmlverify::ServeOptions options;
  options.jobs = kServerJobs;
  options.stats = stats;
  live->server = std::make_unique<xmlverify::ServeServer>(options);
  // Threads inherit the affinity of their creator: the server's threads
  // (and the readers its acceptor spawns) get the first half of the
  // cores, the generator the second half, so neither preempts the
  // other's wake-ups.
  PinThisThread(0);
  xmlverify::Status started = live->server->Start();
  PinThisThread(1);
  if (!started.ok()) {
    result->Fail("server start: " + started.message());
    return 0;
  }
  for (int& fd : live->fds) {
    fd = ConnectLoopback(live->server->port());
    if (fd < 0) result->Fail("connect to the server failed");
  }
  if (working_set != nullptr && result->correct) {
    auto pass = [&](int conn, std::vector<std::string>* problems) {
      xmlverify::Result<xmlverify::ServeClient> client =
          xmlverify::ServeClient::Connect("127.0.0.1", live->server->port());
      if (!client.ok() || !client->set_recv_timeout_millis(30000).ok()) {
        problems->push_back("working-set connection failed");
        return;
      }
      const int64_t total = static_cast<int64_t>(working_set->size());
      // Specs conn, conn + 2, ... go on this connection; responses may
      // come back out of order.
      int64_t sent = conn;
      for (int64_t read = conn; read < total; read += 2) {
        for (; sent < total && sent - read < 2 * kSetUpWindow; sent += 2) {
          if (!client->SendLine(RequestLine(sent, (*working_set)[sent].text,
                                            false))
                   .ok()) {
            problems->push_back("working-set request failed");
            return;
          }
        }
        xmlverify::Result<std::string> line = client->ReadLine();
        if (!line.ok()) {
          problems->push_back("working-set response missing: " +
                              line.status().message());
          return;
        }
        int64_t id = ResponseId(*line);
        if (id < 0 || id >= total || id % 2 != conn ||
            StringField(*line, "verdict") !=
                xmlverify::OutcomeName((*working_set)[id].expected)) {
          problems->push_back("working-set verdict differs from reference: " +
                              line->substr(0, 200));
        }
      }
    };
    std::vector<std::string> problems[2];
    std::thread other(pass, 1, &problems[1]);
    pass(0, &problems[0]);
    other.join();
    for (const auto& list : problems) {
      for (const std::string& problem : list) result->Fail(problem);
    }
  }
  return SecondsSince(begin);
}

// Compares a seeded sample of references with the differential
// cross-check (every applicable procedure plus brute force on tiny
// DTDs).
void CrossCheckSample(const std::vector<KnownSpec>& specs, uint64_t seed,
                      int samples, RunResult* result) {
  Rng rng{seed ^ 0x3c6ef372fe94f82bULL};
  // A per-procedure deadline bounds the rare draw whose bounded or
  // exhaustive search runs for seconds; a procedure that hits it gives
  // no verdict and so cannot disagree.
  xmlverify::OracleOptions oracle;
  oracle.timeout_millis = 300;
  for (int s = 0; s < samples && !specs.empty(); ++s) {
    const KnownSpec& known = specs[rng.Below(static_cast<int>(specs.size()))];
    Specification spec = Specification::ParseCombined(known.text).ValueOrDie();
    xmlverify::CrossCheckReport report =
        xmlverify::CrossCheckSpecification(spec, oracle);
    if (!report.agreed() ||
        (report.consensus.has_value() && *report.consensus != known.expected)) {
      result->Fail("cross-check disagrees with the reference on " + known.text);
    }
  }
}

void ReportStreamProblems(const Stream& stream, RunResult* result) {
  for (const std::string& problem : stream.problems) result->Fail(problem);
}

// Self-test: flips the expected verdict of a spec the timed phase sends.
// Planted after the cross-check, so only the check of the server's
// responses can catch it.
void PlantWrongVerdict(KnownSpec* spec) {
  spec->expected = spec->expected == ConsistencyOutcome::kConsistent
                       ? ConsistencyOutcome::kInconsistent
                       : ConsistencyOutcome::kConsistent;
}

void SetGeneratorMetrics(const Stream& stream, const Evaluation& eval,
                         Report* m) {
  std::array<double, kNumClasses> shares = ClassShares(stream.requests);
  for (int cls = 0; cls < kNumClasses; ++cls) {
    m->Set(std::string("bench.class_share.") + ClassName(cls), shares[cls],
           "ratio");
  }
  m->Set("bench.dup_inflight_share", shares[kDuplicate], "ratio");
  m->Set("bench.lag_p99_us", Percentile(eval.lag_us, 0.99), "us");
  m->Set("bench.error_share",
         static_cast<double>(eval.errors) /
             static_cast<double>(std::max<int64_t>(eval.attempted, 1)),
         "ratio");
  m->Set("bench.samples", static_cast<double>(eval.attempted), "count");
}

// The sender must run well ahead of what it measures: its p99 lag must
// stay under half the median latency (a raw cache hit, on serve_hot).
void PrintLagCheck(const Evaluation& eval) {
  double lag = Percentile(eval.lag_us, 0.99);
  double p50 = Percentile(eval.latency_ms, 0.5) * 1e3;
  std::printf("generator: lag p99 %.1f us, latency p50 %.1f us%s\n", lag, p50,
              lag > 0.5 * p50 ? " -- INVALID: the sender ran late by a large "
                                "share of what it measures"
                              : "");
}

// ------------------------------------------------------ stream replay

// Replays a request stream on one thread through the layers a worker
// calls on the way to a verdict, against a private VerdictCache, each
// call under a span.
struct ReplayCounts {
  int64_t raw_hits = 0;
  int64_t canonical_hits = 0;
  int64_t quick_attempts = 0;
  int64_t quick_confirms = 0;
  int64_t requests = 0;
};

struct HistoryEntry {
  xmlverify::ConstraintSet constraints;
  ConsistencyOutcome outcome;
  std::string witness_xml;  // CONSISTENT entries keep it, as the server's do
};

void ReplayStream(const std::vector<KnownSpec>& preload, const Stream& stream,
                  SpanLog* log, LayerTotals* totals, ReplayCounts* counts,
                  RunResult* result) {
  xmlverify::VerdictCache cache;
  std::unordered_map<std::string, std::vector<HistoryEntry>> history;
  auto remember = [&](const Specification& spec, ConsistencyOutcome outcome,
                      const std::string& witness_xml) {
    std::vector<HistoryEntry>& entries = history[spec.dtd.ToString()];
    entries.push_back({spec.constraints, outcome, witness_xml});
    if (entries.size() > 4) entries.erase(entries.begin());
  };
  for (const KnownSpec& spec : preload) {
    Specification parsed = Specification::ParseCombined(spec.text).ValueOrDie();
    std::string canonical = xmlverify::CanonicalSpecText(parsed);
    cache.Insert(canonical, "s\n" + spec.text,
                 xmlverify::FingerprintText(canonical), spec.expected, "",
                 spec.witness);
    remember(parsed, spec.expected, spec.witness);
  }
  const xmlverify::ImplicationChecker quick;
  std::unordered_set<int> decomposed;
  for (size_t i = 0; i < stream.requests.size(); ++i) {
    const Planned& planned = stream.requests[i];
    const KnownSpec& known = stream.specs[planned.spec];
    const int64_t id = static_cast<int64_t>(i);
    counts->requests += 1;
    ScopedSpan root(log, "request", id);
    std::string line = planned.line.substr(0, planned.line.size() - 1);
    xmlverify::Result<xmlverify::ServeRequest> request = [&] {
      ScopedSpan span(log, "serve.protocol", id);
      return xmlverify::ParseServeRequest(line);
    }();
    if (!request.ok()) {
      result->Fail("replay: request does not parse");
      continue;
    }
    const std::string raw_key = "s\n" + request->spec_text;
    std::shared_ptr<const xmlverify::CachedVerdict> hit;
    {
      ScopedSpan span(log, "serve.lookup_raw", id);
      hit = cache.LookupRaw(raw_key);
    }
    ConsistencyOutcome outcome = known.expected;
    if (hit) {
      counts->raw_hits += 1;
      outcome = hit->outcome;
    } else {
      xmlverify::Result<Specification> spec = [&] {
        ScopedSpan span(log, "core.parse", id);
        return Specification::ParseCombined(request->spec_text);
      }();
      if (!spec.ok()) {
        result->Fail("replay: spec does not parse");
        continue;
      }
      std::string canonical;
      std::string fingerprint;
      {
        ScopedSpan span(log, "core.canonical", id);
        canonical = xmlverify::CanonicalSpecText(*spec);
        fingerprint = xmlverify::FingerprintText(canonical);
      }
      {
        ScopedSpan span(log, "serve.lookup_canonical", id);
        hit = cache.LookupCanonical(canonical, raw_key);
      }
      if (hit) {
        counts->canonical_hits += 1;
        outcome = hit->outcome;
      } else {
        bool confirmed = false;
        std::string witness_xml;
        auto it = history.find(spec->dtd.ToString());
        if (it != history.end()) {
          for (auto entry = it->second.rbegin();
               entry != it->second.rend() && !confirmed; ++entry) {
            if (!Definitive(entry->outcome)) continue;
            const bool consistent =
                entry->outcome == ConsistencyOutcome::kConsistent;
            {
              ScopedSpan span(log, "core.quick_implies", id);
              counts->quick_attempts += 1;
              confirmed = consistent
                              ? quick.QuickImpliesAll(spec->dtd,
                                                      entry->constraints,
                                                      spec->constraints)
                              : quick.QuickImpliesAll(spec->dtd,
                                                      spec->constraints,
                                                      entry->constraints);
            }
            if (confirmed) counts->quick_confirms += 1;
            if (confirmed && consistent) {
              // The server trusts a CONSISTENT entry only once its
              // witness passes the document checker on the new spec.
              confirmed = !entry->witness_xml.empty();
              if (confirmed) {
                ScopedSpan span(log, "checker.replay", id);
                xmlverify::Result<xmlverify::XmlTree> tree =
                    xmlverify::ParseXmlDocument(entry->witness_xml,
                                                spec->dtd);
                confirmed = tree.ok() &&
                            xmlverify::CheckDocument(*tree, spec->dtd,
                                                     spec->constraints)
                                .ok();
              }
            }
            if (confirmed) {
              outcome = entry->outcome;
              witness_xml = entry->witness_xml;
            }
          }
        }
        if (!confirmed && decomposed.insert(planned.spec).second) {
          // A real solve: replay its layers and hold the decomposition
          // to the facade's verdict (the reference).
          xmlverify::Result<ConsistencyOutcome> replayed =
              DecomposedCheck(*spec, id, log, totals);
          if (!replayed.ok() || *replayed != known.expected) {
            result->Fail("decomposition replay disagrees with Check on " +
                         known.text);
          }
        }
        {
          ScopedSpan span(log, "serve.insert", id);
          cache.Insert(canonical, raw_key, fingerprint, outcome, "",
                       witness_xml);
        }
        remember(*spec, outcome, witness_xml);
      }
    }
    {
      ScopedSpan span(log, "serve.protocol", id);
      std::string response = xmlverify::FormatVerdictResponse(
          request->id, outcome, "", "", hit != nullptr, "", false);
      (void)response;
    }
  }
}

const std::vector<std::string>& ReplayLayers() {
  static const std::vector<std::string> kLayers = {
      "serve.protocol",     "serve.lookup_raw",  "serve.lookup_canonical",
      "serve.insert",       "core.parse",        "core.canonical",
      "core.quick_implies", "core.classify",     "encoding.flow",
      "encoding.cardinality", "encoding.regular", "ilp.solve",
      "ilp.presolve",       "ilp.root_lp",       "core.witness",
      "checker.replay",     "core.hierarchical"};
  return kLayers;
}

// Per-layer metrics shared by both serve workloads' traced runs. `plain`
// and `traced` each pool `rounds` servers that were sent `preload` and
// then `stream`; `registry` holds the counters of the traced ones.
void ReportServeLayers(const Stream& stream, const Evaluation& plain,
                       const Evaluation& traced,
                       const xmlverify::StatsRegistry& registry,
                       const std::vector<KnownSpec>& preload, int rounds,
                       const Options& options, Report* m, RunResult* result) {
  m->Set("trace.overhead_share",
         GeoMean(traced.latency_ms) / GeoMean(plain.latency_ms) - 1,
         "ratio");
  m->Set("serve.repeat.p50_us", Median(plain.by_class[kRepeat]) * 1e3, "us");
  m->Set("serve.respell.p50_us", Median(plain.by_class[kRespell]) * 1e3, "us");
  m->Set("serve.edit.p50_us", Median(plain.by_class[kEdit]) * 1e3, "us");
  m->Set("serve.fresh.p50_ms", Median(plain.by_class[kFresh]), "ms");
  m->Set("serve.unique.p50_ms", Median(plain.by_class[kUnique]), "ms");
  m->Set("serve.duplicate.p50_ms", Median(plain.by_class[kDuplicate]), "ms");
  m->Set("serve.p99_ms", Percentile(plain.latency_ms, 0.99), "ms");
  SetGeneratorMetrics(stream, plain, m);

  // The server's own counters over the traced rounds, less the set-up
  // passes (every preloaded spec is one request and one miss).
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.Counter(name));
  };
  const double preloaded = rounds * static_cast<double>(preload.size());
  double requests = std::max(1.0, counter("serve/requests") - preloaded);
  double misses = counter("serve/cache_misses") - preloaded;
  double incremental = counter("serve/incremental_hits");
  m->Set("serve.incremental_share", incremental / requests, "ratio");
  m->Set("serve.miss_share", (misses - incremental) / requests, "ratio");
  m->Set("serve.queue_depth_max", counter("serve/queue_depth_max"), "count");
  m->Set("serve.shed", counter("serve/shed"), "count");
  m->Set("serve.redundant_solves",
         misses / rounds - static_cast<double>(stream.distinct_new), "count");

  SpanLog log;
  LayerTotals totals;
  ReplayCounts counts;
  ReplayStream(preload, stream, &log, &totals, &counts, result);
  // The server counts hits of both tiers together; the replay, which
  // takes the same tier decisions, splits them. (It cannot see in-flight
  // duplicates, which both miss in the server.)
  double hits = counter("serve/cache_hits") / requests;
  double replay_hits = static_cast<double>(counts.raw_hits + counts.canonical_hits);
  double raw_part =
      replay_hits > 0 ? static_cast<double>(counts.raw_hits) / replay_hits : 0;
  m->Set("serve.raw_hit_share", hits * raw_part, "ratio");
  m->Set("serve.canonical_hit_share", hits * (1 - raw_part), "ratio");
  m->Set("core.quick_implies.confirm_share",
         counts.quick_attempts > 0
             ? static_cast<double>(counts.quick_confirms) /
                   static_cast<double>(counts.quick_attempts)
             : 0,
         "ratio");
  // Shares are of the client-observed time of the same requests (the
  // replay covers one pass of the stream).
  double client_total = 0;
  for (double ms : plain.latency_ms) client_total += ms * 1e6 / rounds;
  ReportLayerCalls(log, ReplayLayers(), client_total, m);
  if (!plain.by_class[kRepeat].empty()) {
    m->Set("serve.hit_overhead_us",
           m->Get("serve.repeat.p50_us") - m->Get("serve.protocol.p50_us") -
               m->Get("serve.lookup_raw.p50_us"),
           "us");
  }
  ReportLayerTotals(totals, registry,
                    static_cast<int64_t>(std::max(misses + preloaded, 1.0)), m);
  log.WriteJsonLines(options.out_dir, options.workload, options.seed);
}

}  // namespace

namespace {

// One round's end-to-end figures; a run reports the median over rounds,
// since each freshly started server settles at its own latency level
// (+-15% between rounds on a shared 4-core VM).
struct RoundFigures {
  std::vector<double> p50, p90, geomean, rate, goodput;
  void Add(const Evaluation& eval) {
    p50.push_back(Percentile(eval.latency_ms, 0.5));
    p90.push_back(Percentile(eval.latency_ms, 0.9));
    geomean.push_back(GeoMean(eval.latency_ms));
    rate.push_back(static_cast<double>(eval.verdicts) / eval.wall_s);
    goodput.push_back(static_cast<double>(eval.decided) / eval.wall_s);
    std::printf("round %zu: p50 %.4f p90 %.4f geomean %.4f ms\n", p50.size(),
                p50.back(), p90.back(), geomean.back());
  }
  void Report(const Evaluation& pooled, ledger::Report* m) const {
    m->Set("verdict_p50_ms", Median(p50), "ms");
    m->Set("verdict_p90_ms", Median(p90), "ms");
    m->Set("verdict_geomean_ms", Median(geomean), "ms");
    m->Set("verdicts_per_s", Median(rate), "1/s");
    m->Set("decided_share",
           static_cast<double>(pooled.decided) /
               static_cast<double>(std::max<int64_t>(pooled.attempted, 1)),
           "ratio");
  }
};

}  // namespace

RunResult RunServeHot(const Options& options) {
  RunResult result;
  // The timed phase runs in rounds, each on a freshly set-up server
  // replaying the same stream: the working set offers only ~2,500-3,000
  // distinct confirmable edits, and each second needs 700. Short rounds
  // also give the median more draws of a server's latency level.
  // A traced run alternates untraced and traced rounds, so it needs an
  // even count.
  const int per_kind = options.trace ? 2 : 1;
  const int rounds =
      per_kind * std::max(1, static_cast<int>(std::ceil(
                                 options.seconds / per_kind / kHotRoundSeconds -
                                 1e-9)));
  const double round_seconds = options.seconds / rounds;
  int64_t count = std::llround(kHotRate * round_seconds);
  HotInputs inputs = BuildHotInputs(options.seed, count, kHotRate);
  ReleaseFreedMemory();
  Stream& stream = inputs.stream;
  ReportStreamProblems(stream, &result);
  CrossCheckSample(inputs.working_set, options.seed, 8, &result);
  if (!result.correct) return result;
  if (options.plant_wrong_verdict) {
    PlantWrongVerdict(&stream.specs[stream.requests.front().spec]);
  }

  if (!options.trace) {
    // Every round sets up from cold memos; set-up time is the median
    // over at least three set-ups.
    std::vector<double> setups;
    RoundFigures figures;
    Evaluation eval;
    for (int round = 0; round < std::max(rounds, 3); ++round) {
      LiveServer live;
      ClearProcessMemos();
      setups.push_back(SetUp(nullptr, &inputs.working_set, &live, &result));
      if (!result.correct) return result;
      if (round >= rounds) continue;
      Phase phase = RunOpenLoop(live.fds, stream, 0, 5.0, kHotSpinNanos);
      live.Close();
      Evaluation round_eval = Evaluate(stream, phase, kHotLimitMs, &result);
      figures.Add(round_eval);
      Merge(round_eval, &eval);
      ReleaseFreedMemory();
    }
    result.attempted = eval.attempted;
    result.failed = eval.errors;
    Report& m = result.metrics;
    m.Set("setup_s", Median(setups), "s");
    figures.Report(eval, &m);
    // One fixed rate: the sustained rate is the goodput at that rate.
    m.Set("sustained_rps", Median(figures.goodput), "req/s");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    PrintLagCheck(eval);
    std::printf("serve_hot: %d rounds of %lld requests, %lld errors, %lld "
                "witnesses replayed\n",
                rounds, static_cast<long long>(count),
                static_cast<long long>(eval.errors),
                static_cast<long long>(eval.witnesses));
    return result;
  }

  // Traced run: the same stream, rounds alternating between an untraced
  // server and one with ServeOptions::stats set, then the single-thread
  // replay.
  Evaluation plain;
  Evaluation traced;
  xmlverify::StatsRegistry registry;
  for (int round = 0; round < rounds; ++round) {
    const bool with_stats = round % 2 == 1;
    LiveServer live;
    ClearProcessMemos();
    SetUp(with_stats ? &registry : nullptr, &inputs.working_set, &live,
          &result);
    if (!result.correct) return result;
    Phase phase = RunOpenLoop(live.fds, stream, 0, 5.0, kHotSpinNanos);
    live.Close();
    Merge(Evaluate(stream, phase, kHotLimitMs, &result),
          with_stats ? &traced : &plain);
    ReleaseFreedMemory();
  }
  result.attempted = plain.attempted + traced.attempted;
  result.failed = plain.errors + traced.errors;
  ReportServeLayers(stream, plain, traced, registry, inputs.working_set,
                    rounds / 2, options, &result.metrics, &result);
  return result;
}

namespace {

struct StepOutcome {
  double rate;
  double p90_ms;
  bool backlog;
  bool pass;
};

// One ladder step. A step's backlog grows when its last quarter waits
// much longer than its first; its p90 is then that of the last quarter,
// where the latency is heading, so the crossing can still be
// interpolated.
StepOutcome MeasureStep(double rate, const Evaluation& eval) {
  StepOutcome step{rate, Percentile(eval.latency_ms, 0.9), false, false};
  size_t n = eval.latency_ms.size();
  if (n >= 8) {
    std::vector<double> early(eval.latency_ms.begin(),
                              eval.latency_ms.begin() + n / 4);
    std::vector<double> late(eval.latency_ms.end() - n / 4,
                             eval.latency_ms.end());
    double late_p50 = Median(late);
    step.backlog = late_p50 > 2 * Median(early) && late_p50 > kColdTailLimitMs / 4;
    if (step.backlog) step.p90_ms = std::max(step.p90_ms, Percentile(late, 0.9));
  }
  step.pass = step.p90_ms <= kColdTailLimitMs && !step.backlog && eval.errors == 0;
  return step;
}

// The rate at which p90 crosses the limit, interpolated (log-log)
// between the last passing step and the first failing one.
double SustainedRate(const std::vector<StepOutcome>& steps) {
  double sustained = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].pass) {
      sustained = steps[i].rate;
      continue;
    }
    // A step that failed on backlog or errors alone, under the p90
    // limit, gives no crossing point to interpolate.
    if (i == 0 || steps[i].p90_ms <= kColdTailLimitMs) return sustained;
    const StepOutcome& lo = steps[i - 1];
    const StepOutcome& hi = steps[i];
    double f = (std::log(kColdTailLimitMs) - std::log(lo.p90_ms)) /
               (std::log(hi.p90_ms) - std::log(lo.p90_ms));
    f = std::clamp(f, 0.0, 1.0);
    return lo.rate * std::pow(hi.rate / lo.rate, f);
  }
  return sustained;
}

}  // namespace

RunResult RunServeCold(const Options& options) {
  RunResult result;
  ColdGenerator generator(options.seed);
  // The nominal phase runs in rounds, each on a fresh server with its
  // own specs (more distinct specs per run steady the spec mix); the
  // ladder follows on the last server, each step with specs never sent
  // before. The traced run sends one stream to both of its servers.
  const int rounds = options.trace ? 2 : kColdRounds;
  const double round_seconds =
      options.trace ? options.seconds / 2
                    : kColdNominalShare * options.seconds / kColdRounds;
  std::vector<Stream> nominals;
  for (int round = 0; round < (options.trace ? 1 : rounds); ++round) {
    nominals.push_back(generator.Next(
        std::llround(kColdRate * round_seconds), kColdRate, 0));
    ReportStreamProblems(nominals.back(), &result);
  }
  Stream& nominal = nominals.front();
  CrossCheckSample(nominal.specs, options.seed, 8, &result);
  if (!result.correct) return result;
  if (options.plant_wrong_verdict && !nominal.specs.empty()) {
    PlantWrongVerdict(&nominal.specs.front());
  }

  if (!options.trace) {
    std::vector<double> setups;
    RoundFigures figures;
    Evaluation eval;
    LiveServer live;
    for (int round = 0; round < rounds; ++round) {
      live.Close();
      ClearProcessMemos();
      setups.push_back(SetUp(nullptr, nullptr, &live, &result));
      if (!result.correct) return result;
      Phase phase =
          RunOpenLoop(live.fds, nominals[round], 0, 10.0, kColdSpinNanos);
      Evaluation round_eval =
          Evaluate(nominals[round], phase, kColdLimitMs, &result);
      figures.Add(round_eval);
      Merge(round_eval, &eval);
      ReleaseFreedMemory();
    }
    // Server start alone is sub-millisecond: more draws for its median.
    for (int extra = 0; extra < 25; ++extra) {
      LiveServer spare;
      setups.push_back(SetUp(nullptr, nullptr, &spare, &result));
    }
    result.attempted = eval.attempted;
    result.failed = eval.errors;

    std::vector<StepOutcome> steps;
    steps.push_back({kColdRate, Median(figures.p90), false, false});
    steps.back().pass =
        steps.back().p90_ms <= kColdTailLimitMs && eval.errors == 0;
    int64_t next_id = static_cast<int64_t>(nominals.back().requests.size());
    for (double rate : kLadderRates) {
      if (!steps.back().pass) break;
      const double step_seconds =
          (rate < kLongStepRate ? kColdStepShare : kColdLongStepShare) *
          options.seconds;
      // Drawn right before the step (references warm the memos, which
      // are cleared again before the step is sent).
      Stream step = generator.Next(std::llround(rate * step_seconds), rate,
                                   next_id);
      ReportStreamProblems(step, &result);
      ClearProcessMemos();
      Phase phase = RunOpenLoop(live.fds, step, next_id, 3.0, kColdSpinNanos);
      next_id += static_cast<int64_t>(step.requests.size());
      // Ladder verdicts are checked too, but errors past saturation are
      // the measurement, not failures of the run.
      RunResult step_check;
      Evaluation step_eval = Evaluate(step, phase, kColdLimitMs, &step_check);
      for (const std::string& problem : step_check.problems) {
        if (problem.find("verdict") != std::string::npos ||
            problem.find("witness") != std::string::npos) {
          result.Fail(problem);
        }
      }
      steps.push_back(MeasureStep(rate, step_eval));
      ReleaseFreedMemory();
      std::printf("ladder %6.0f req/s: p50 %8.3f p90 %8.3f p99 %8.3f ms, "
                  "%lld errors%s%s\n",
                  rate, Percentile(step_eval.latency_ms, 0.5),
                  steps.back().p90_ms, Percentile(step_eval.latency_ms, 0.99),
                  static_cast<long long>(step_eval.errors),
                  steps.back().backlog ? ", backlog grows" : "",
                  steps.back().pass ? "" : " -- limit missed");
    }
    live.Close();
    Report& m = result.metrics;
    m.Set("setup_s", Median(setups), "s");
    figures.Report(eval, &m);
    m.Set("sustained_rps", SustainedRate(steps), "req/s");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    PrintLagCheck(eval);
    std::printf("serve_cold: %d rounds of %zu requests at %.0f req/s, %lld "
                "errors, %lld witnesses replayed\n",
                rounds, nominals.back().requests.size(), kColdRate,
                static_cast<long long>(eval.errors),
                static_cast<long long>(eval.witnesses));
    return result;
  }

  Evaluation plain;
  Evaluation traced;
  xmlverify::StatsRegistry registry;
  for (int half = 0; half < 2; ++half) {
    LiveServer live;
    ClearProcessMemos();
    SetUp(half == 0 ? nullptr : &registry, nullptr, &live, &result);
    if (!result.correct) return result;
    Phase phase = RunOpenLoop(live.fds, nominal, 0, 10.0, kColdSpinNanos);
    live.Close();
    (half == 0 ? plain : traced) =
        Evaluate(nominal, phase, kColdLimitMs, &result);
  }
  result.attempted = plain.attempted + traced.attempted;
  result.failed = plain.errors + traced.errors;
  ClearProcessMemos();
  ReportServeLayers(nominal, plain, traced, registry, {}, 1, options,
                    &result.metrics, &result);
  return result;
}

}  // namespace ledger
