// End-to-end tests of the in-process verification server: verdict
// correctness, concurrent cache-hit behavior, protocol robustness on
// a live socket, load shedding, and the never-cache-non-definitive
// policy. Each test starts its own server on an ephemeral port.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "base/string_util.h"
#include "serve/client.h"
#include "tests/test_util.h"
#include "trace/trace.h"

namespace xmlverify {
namespace {

// A tiny consistent specification: x keys the a-children of r.
constexpr char kConsistentSpec[] =
    "root r\n"
    "<!ELEMENT r (a*)>\n"
    "<!ELEMENT a (%)>\n"
    "<!ATTLIST a x>\n"
    "%%\n"
    "r.a.x -> r.a\n";

// Inconsistent: two b's must carry distinct y values (key), yet every
// y must occur among the x values of the single a (inclusion) — two
// distinct values cannot fit in a one-element set.
constexpr char kInconsistentSpec[] =
    "root r\n"
    "<!ELEMENT r (a, b, b)>\n"
    "<!ELEMENT a (%)>\n"
    "<!ATTLIST a x>\n"
    "<!ELEMENT b (%)>\n"
    "<!ATTLIST b y>\n"
    "%%\n"
    "r.b.y -> r.b\n"
    "fk r.b.y <= r.a.x\n";

// Lands in the undecidable multi-attribute class AC^{*,*}_{K,FK}:
// the checker's bounded search returns UNKNOWN, quickly and
// deterministically — the canonical never-cache input.
constexpr char kUnknownSpec[] =
    "<!ELEMENT r (a, a, b)>\n"
    "<!ATTLIST a x>\n"
    "<!ATTLIST a y>\n"
    "<!ATTLIST b u>\n"
    "<!ATTLIST b v>\n"
    "%%\n"
    "a[x,y] -> a\n"
    "b[u,v] -> b\n"
    "a[x,y] <= b[u,v]\n";

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string SpecRequest(const std::string& id, const std::string& spec,
                        const std::string& extra = "") {
  return "{\"id\":\"" + id + "\",\"spec\":\"" + JsonEscape(spec) + "\"" +
         extra + "}";
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServeOptions options) {
    options.stats = &stats_;
    server_ = std::make_unique<ServeServer>(std::move(options));
    ASSERT_OK(server_->Start());
    ASSERT_GT(server_->port(), 0);
  }

  Result<ServeClient> Connect() {
    return ServeClient::Connect("127.0.0.1", server_->port());
  }

  // One request, one response, over a fresh connection.
  std::string RoundTrip(const std::string& request) {
    Result<ServeClient> client = Connect();
    EXPECT_TRUE(client.ok()) << client.status().message();
    EXPECT_TRUE(client->SendLine(request).ok());
    Result<std::string> response = client->ReadLine();
    EXPECT_TRUE(response.ok()) << response.status().message();
    return response.ok() ? *response : "";
  }

  StatsRegistry stats_;
  std::unique_ptr<ServeServer> server_;
};

TEST_F(ServerTest, ServesVerdictsAndCachesDefinitiveOnes) {
  StartServer(ServeOptions{.jobs = 2});

  std::string first = RoundTrip(SpecRequest("c1", kConsistentSpec));
  EXPECT_TRUE(Contains(first, "\"id\":\"c1\"")) << first;
  EXPECT_TRUE(Contains(first, "\"verdict\":\"CONSISTENT\"")) << first;
  EXPECT_TRUE(Contains(first, "\"cached\":false")) << first;
  // Witness only on opt-in.
  EXPECT_FALSE(Contains(first, "\"witness\"")) << first;

  std::string repeat =
      RoundTrip(SpecRequest("c2", kConsistentSpec, ",\"witness\":true"));
  EXPECT_TRUE(Contains(repeat, "\"verdict\":\"CONSISTENT\"")) << repeat;
  EXPECT_TRUE(Contains(repeat, "\"cached\":true")) << repeat;
  EXPECT_TRUE(Contains(repeat, "\"witness\":\"")) << repeat;

  std::string inconsistent = RoundTrip(SpecRequest("i1", kInconsistentSpec));
  EXPECT_TRUE(Contains(inconsistent, "\"verdict\":\"INCONSISTENT\""))
      << inconsistent;
  EXPECT_TRUE(Contains(inconsistent, "\"cached\":false")) << inconsistent;
  std::string inconsistent_repeat =
      RoundTrip(SpecRequest("i2", kInconsistentSpec));
  EXPECT_TRUE(Contains(inconsistent_repeat, "\"cached\":true"))
      << inconsistent_repeat;

  server_->Shutdown();
  EXPECT_GE(stats_.Counter("serve/cache_hits"), 2);
}

// kConsistentSpec with its one constraint dropped: same DTD, weaker
// Sigma — the incremental path confirms CONSISTENT from the history
// entry's witness instead of solving.
constexpr char kDroppedConstraintSpec[] =
    "root r\n"
    "<!ELEMENT r (a*)>\n"
    "<!ELEMENT a (%)>\n"
    "<!ATTLIST a x>\n"
    "%%\n";

// kInconsistentSpec plus one extra (absolute) key: a superset of an
// inconsistent Sigma stays inconsistent, and the quick tier sees the
// old constraints verbatim inside the new ones.
constexpr char kExtendedInconsistentSpec[] =
    "root r\n"
    "<!ELEMENT r (a, b, b)>\n"
    "<!ELEMENT a (%)>\n"
    "<!ATTLIST a x>\n"
    "<!ELEMENT b (%)>\n"
    "<!ATTLIST b y>\n"
    "%%\n"
    "r.b.y -> r.b\n"
    "fk r.b.y <= r.a.x\n"
    "b.y -> b\n";

TEST_F(ServerTest, IncrementalReVerificationConfirmsFromHistory) {
  StartServer(ServeOptions{.jobs = 1});

  // Cold solves seed the per-DTD history.
  EXPECT_TRUE(Contains(RoundTrip(SpecRequest("c1", kConsistentSpec)),
                       "\"cached\":false"));
  EXPECT_TRUE(Contains(RoundTrip(SpecRequest("i1", kInconsistentSpec)),
                       "\"verdict\":\"INCONSISTENT\""));

  // CONSISTENT is preserved under dropped constraints (old Sigma
  // implies new Sigma; the old witness is replayed).
  std::string dropped = RoundTrip(SpecRequest("c2", kDroppedConstraintSpec));
  EXPECT_TRUE(Contains(dropped, "\"verdict\":\"CONSISTENT\"")) << dropped;
  EXPECT_TRUE(Contains(dropped, "\"cached\":true")) << dropped;

  // INCONSISTENT is preserved under added constraints (new Sigma
  // implies the old one).
  std::string extended =
      RoundTrip(SpecRequest("i2", kExtendedInconsistentSpec));
  EXPECT_TRUE(Contains(extended, "\"verdict\":\"INCONSISTENT\"")) << extended;
  EXPECT_TRUE(Contains(extended, "\"cached\":true")) << extended;

  // And the confirmations are cached as first-class verdicts: the
  // byte-identical repeats hit the raw tier.
  EXPECT_TRUE(Contains(RoundTrip(SpecRequest("c3", kDroppedConstraintSpec)),
                       "\"cached\":true"));

  server_->Shutdown();
  EXPECT_GE(stats_.Counter("serve/incremental_hits"), 2);
}

TEST_F(ServerTest, AddedConstraintIsConfirmedByWitnessReplayAlone) {
  StartServer(ServeOptions{.jobs = 1});
  std::string base = RoundTrip(SpecRequest("d1", kDroppedConstraintSpec));
  EXPECT_TRUE(Contains(base, "\"note\":\"class: AC_K (keys only)\""))
      << base;

  // The added key follows from no constraint at all, so no implication
  // argument confirms it; the old witness satisfies it, and that is
  // proof enough. The note names the class of the new spec.
  std::string added = RoundTrip(SpecRequest("c1", kConsistentSpec));
  EXPECT_TRUE(Contains(added, "\"verdict\":\"CONSISTENT\"")) << added;
  EXPECT_TRUE(Contains(added, "\"cached\":true")) << added;
  EXPECT_TRUE(
      Contains(added, "\"note\":\"class: AC^{reg}_{K,FK} (regular paths)\""))
      << added;

  server_->Shutdown();
  EXPECT_EQ(stats_.Counter("serve/incremental_hits"), 1);
}

TEST_F(ServerTest, CoresComputedOncePerSpecAndServedFromCache) {
  StartServer(ServeOptions{.jobs = 1});

  // First core-requesting INCONSISTENT response pays for the
  // minimization...
  std::string first =
      RoundTrip(SpecRequest("k1", kInconsistentSpec, ",\"core\":true"));
  EXPECT_TRUE(Contains(first, "\"verdict\":\"INCONSISTENT\"")) << first;
  EXPECT_TRUE(Contains(first, "\"core\":\"")) << first;

  // ...repeats serve the attached core straight from the cache...
  std::string repeat =
      RoundTrip(SpecRequest("k2", kInconsistentSpec, ",\"core\":true"));
  EXPECT_TRUE(Contains(repeat, "\"cached\":true")) << repeat;
  EXPECT_TRUE(Contains(repeat, "\"core\":\"")) << repeat;

  // ...clients that did not opt in never see the member...
  EXPECT_FALSE(Contains(RoundTrip(SpecRequest("k3", kInconsistentSpec)),
                        "\"core\""));

  // ...and CONSISTENT verdicts have no core, opted-in or not.
  EXPECT_FALSE(Contains(
      RoundTrip(SpecRequest("k4", kConsistentSpec, ",\"core\":true")),
      "\"core\""));

  server_->Shutdown();
  EXPECT_EQ(stats_.Counter("serve/core_computed"), 1);
  EXPECT_GE(stats_.Counter("serve/cache_core_attached"), 1);
}

TEST_F(ServerTest, PairFormMatchesCombinedFormVerdict) {
  StartServer(ServeOptions{.jobs = 1});
  std::string combined = RoundTrip(SpecRequest("a", kConsistentSpec));
  EXPECT_TRUE(Contains(combined, "\"verdict\":\"CONSISTENT\"")) << combined;

  std::string pair =
      "{\"id\":\"b\",\"dtd\":\"" +
      JsonEscape("<!ELEMENT r (a*)>\n<!ELEMENT a (%)>\n<!ATTLIST a x>\n") +
      "\",\"constraints\":\"" + JsonEscape("r.a.x -> r.a\n") + "\"}";
  std::string response = RoundTrip(pair);
  EXPECT_TRUE(Contains(response, "\"verdict\":\"CONSISTENT\"")) << response;
  // Same spec through a different request form: the canonical tier
  // recognizes it even though the raw keys differ.
  EXPECT_TRUE(Contains(response, "\"cached\":true")) << response;

  // The two forms agree on the fingerprint.
  std::string fp_combined =
      combined.substr(combined.find("\"fingerprint\":\""), 48);
  std::string fp_pair = response.substr(response.find("\"fingerprint\":\""), 48);
  EXPECT_EQ(fp_combined, fp_pair);
}

TEST_F(ServerTest, NonDefinitiveVerdictsAreNeverCached) {
  StartServer(ServeOptions{.jobs = 1});
  for (const char* id : {"u1", "u2", "u3"}) {
    std::string response = RoundTrip(SpecRequest(id, kUnknownSpec));
    EXPECT_TRUE(Contains(response, "\"verdict\":\"UNKNOWN\"")) << response;
    EXPECT_TRUE(Contains(response, "\"cached\":false")) << response;
  }
  server_->Shutdown();
  EXPECT_EQ(stats_.Counter("serve/cache_hits"), 0);
  EXPECT_GE(stats_.Counter("serve/cache_uncacheable"), 3);
}

TEST_F(ServerTest, ConcurrentClientsAllHitTheWarmCache) {
  StartServer(ServeOptions{.jobs = 4});
  // Prime the cache once.
  std::string primed = RoundTrip(SpecRequest("prime", kConsistentSpec));
  ASSERT_TRUE(Contains(primed, "\"verdict\":\"CONSISTENT\"")) << primed;

  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> hits{0};
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, i, &hits, &failures] {
      Result<ServeClient> client = Connect();
      if (!client.ok()) {
        ++failures;
        return;
      }
      std::string id = "cc" + std::to_string(i);
      if (!client->SendLine(SpecRequest(id, kConsistentSpec)).ok()) {
        ++failures;
        return;
      }
      Result<std::string> response = client->ReadLine();
      if (!response.ok()) {
        ++failures;
        return;
      }
      if (Contains(*response, "\"id\":\"" + id + "\"") &&
          Contains(*response, "\"verdict\":\"CONSISTENT\"") &&
          Contains(*response, "\"cached\":true")) {
        ++hits;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(hits.load(), kClients);
}

TEST_F(ServerTest, PipelinedRequestsOnOneConnection) {
  StartServer(ServeOptions{.jobs = 2});
  ASSERT_OK_AND_ASSIGN(ServeClient client, Connect());
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_OK(client.SendLine(
        SpecRequest(StrCat("p", std::to_string(i)), kConsistentSpec)));
  }
  client.FinishWriting();
  // Responses may arrive in any order; collect and match by id.
  std::vector<bool> seen(kRequests, false);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_OK_AND_ASSIGN(std::string response, client.ReadLine());
    EXPECT_TRUE(Contains(response, "\"verdict\":\"CONSISTENT\"")) << response;
    for (int j = 0; j < kRequests; ++j) {
      if (Contains(response, "\"id\":\"p" + std::to_string(j) + "\"")) {
        EXPECT_FALSE(seen[j]) << "duplicate response for p" << j;
        seen[j] = true;
      }
    }
  }
  for (int j = 0; j < kRequests; ++j) EXPECT_TRUE(seen[j]) << "p" << j;
}

TEST_F(ServerTest, MalformedLinesGetStructuredErrorsAndConnectionSurvives) {
  StartServer(ServeOptions{.jobs = 1});
  ASSERT_OK_AND_ASSIGN(ServeClient client, Connect());

  ASSERT_OK(client.SendLine("this is not json"));
  ASSERT_OK_AND_ASSIGN(std::string error1, client.ReadLine());
  EXPECT_TRUE(Contains(error1, "\"error\":\"INVALID_REQUEST\"")) << error1;
  EXPECT_TRUE(Contains(error1, "\"retryable\":false")) << error1;

  // Unknown field — the id is still recovered and echoed.
  ASSERT_OK(client.SendLine(R"({"id":"bad1","spec":"x","bogus":1})"));
  ASSERT_OK_AND_ASSIGN(std::string error2, client.ReadLine());
  EXPECT_TRUE(Contains(error2, "\"id\":\"bad1\"")) << error2;
  EXPECT_TRUE(Contains(error2, "\"error\":\"INVALID_REQUEST\"")) << error2;

  // A spec that parses as JSON but not as a specification.
  ASSERT_OK(client.SendLine(R"({"id":"bad2","spec":"not a spec"})"));
  ASSERT_OK_AND_ASSIGN(std::string error3, client.ReadLine());
  EXPECT_TRUE(Contains(error3, "\"id\":\"bad2\"")) << error3;
  EXPECT_TRUE(Contains(error3, "\"error\":\"INVALID_SPEC\"")) << error3;

  // The connection is still perfectly usable for a real request.
  ASSERT_OK(client.SendLine(SpecRequest("ok", kConsistentSpec)));
  ASSERT_OK_AND_ASSIGN(std::string verdict, client.ReadLine());
  EXPECT_TRUE(Contains(verdict, "\"verdict\":\"CONSISTENT\"")) << verdict;
}

TEST_F(ServerTest, OversizedLinesAreDiscardedNotFatal) {
  StartServer(ServeOptions{.jobs = 1, .max_line_bytes = 1024});
  ASSERT_OK_AND_ASSIGN(ServeClient client, Connect());
  std::string huge = "{\"id\":\"big\",\"spec\":\"" + std::string(4096, 'a') +
                     "\"}";
  ASSERT_OK(client.SendLine(huge));
  ASSERT_OK_AND_ASSIGN(std::string error, client.ReadLine());
  EXPECT_TRUE(Contains(error, "\"error\":\"LINE_TOO_LONG\"")) << error;
  // Framing resumes at the next newline: the following request works.
  ASSERT_OK(client.SendLine(SpecRequest("after", kConsistentSpec)));
  ASSERT_OK_AND_ASSIGN(std::string verdict, client.ReadLine());
  EXPECT_TRUE(Contains(verdict, "\"id\":\"after\"")) << verdict;
  EXPECT_TRUE(Contains(verdict, "\"verdict\":\"CONSISTENT\"")) << verdict;
}

TEST_F(ServerTest, FullQueueShedsWithRetryableResponse) {
  // One deliberately slow worker and a one-slot queue: with several
  // requests in flight at once, at least one must be shed.
  StartServer(ServeOptions{.jobs = 1,
                           .queue_limit = 1,
                           .debug_handle_delay_millis = 150});
  ASSERT_OK_AND_ASSIGN(ServeClient client, Connect());
  constexpr int kBurst = 6;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_OK(client.SendLine(
        SpecRequest(StrCat("b", std::to_string(i)), kConsistentSpec)));
  }
  client.FinishWriting();
  int verdicts = 0;
  int sheds = 0;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_OK_AND_ASSIGN(std::string response, client.ReadLine());
    if (Contains(response, "\"verdict\":")) {
      ++verdicts;
    } else {
      EXPECT_TRUE(Contains(response, "\"error\":\"RETRYABLE\"")) << response;
      EXPECT_TRUE(Contains(response, "\"retryable\":true")) << response;
      ++sheds;
    }
  }
  EXPECT_EQ(verdicts + sheds, kBurst);
  EXPECT_GE(sheds, 1);
  EXPECT_GE(verdicts, 1);  // admitted requests still complete
  server_->Shutdown();
  EXPECT_GE(stats_.Counter("serve/shed"), 1);
}

TEST_F(ServerTest, MaxRequestsStopsTheServer) {
  StartServer(ServeOptions{.jobs = 1, .max_requests = 2});
  RoundTrip(SpecRequest("m1", kConsistentSpec));
  RoundTrip(SpecRequest("m2", kConsistentSpec));
  server_->Wait();  // returns because the response budget is spent
  EXPECT_TRUE(server_->stopped());
  EXPECT_GE(server_->responses_sent(), 2);
}

TEST_F(ServerTest, ShutdownIsIdempotentAndUnblocksClients) {
  StartServer(ServeOptions{.jobs = 1});
  ASSERT_OK_AND_ASSIGN(ServeClient client, Connect());
  std::thread stopper([this] { server_->Shutdown(); });
  server_->Shutdown();
  stopper.join();
  // The client observes EOF (kNotFound) rather than hanging.
  Result<std::string> response = client.ReadLine();
  EXPECT_FALSE(response.ok());
}

}  // namespace
}  // namespace xmlverify
