// The SPARQL serving layer: result serialization goldens, the
// fingerprint-keyed plan cache (LRU, counters, collision handling), the
// Frontend's admission control and status mapping, and a concurrent
// server test that doubles as the TSan suite for serve (suite names
// start with "Serve" so check.sh's TSan gate picks them up).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"
#include "serve/frontend.h"
#include "serve/http.h"
#include "serve/plan_cache.h"
#include "serve/serialize.h"
#include "serve/server.h"
#include "sparql/engine.h"
#include "sparql/fingerprint.h"
#include "sparql/parser.h"
#include "storage/disk_source_adapter.h"
#include "storage/disk_triple_store.h"
#include "test_util.h"

namespace lodviz::serve {
namespace {

rdf::TripleStore MakeStore() {
  rdf::TripleStore store;
  const char* doc = R"(
<http://x/a> <http://x/p> "hello" .
<http://x/a> <http://x/name> "Ann \"A\""@en .
<http://x/b> <http://x/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/b> <http://x/q> <http://x/a> .
)";
  LODVIZ_CHECK_OK(rdf::LoadNTriplesString(doc, &store).status());
  return store;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(ServeSerializeTest, JsonBindingsGolden) {
  sparql::ResultTable t({"s", "v"});
  const sparql::ResultTable::Cell row0[] = {
      t.Own(rdf::Term::Iri("http://x/a")),
      t.Own(rdf::Term::LangLiteral("Ann \"A\"", "en"))};
  t.AddRow(row0);
  const sparql::ResultTable::Cell row1[] = {
      t.Own(rdf::Term::Literal("3",
                               "http://www.w3.org/2001/XMLSchema#integer")),
      rdf::kInvalidTermId};  // unbound cell must be absent
  t.AddRow(row1);
  const std::string json = ResultTableJson(t, /*is_ask=*/false);
  EXPECT_EQ(json,
            "{\"head\":{\"vars\":[\"s\",\"v\"]},\"results\":{\"bindings\":["
            "{\"s\":{\"type\":\"uri\",\"value\":\"http://x/a\"},"
            "\"v\":{\"type\":\"literal\",\"value\":\"Ann \\\"A\\\"\","
            "\"xml:lang\":\"en\"}},"
            "{\"s\":{\"type\":\"literal\",\"value\":\"3\","
            "\"datatype\":\"http://www.w3.org/2001/XMLSchema#integer\"}}"
            "]}}");
}

TEST(ServeSerializeTest, JsonAskGolden) {
  sparql::ResultTable t;
  t.ask_result = true;
  EXPECT_EQ(ResultTableJson(t, /*is_ask=*/true),
            "{\"head\":{},\"boolean\":true}");
}

TEST(ServeSerializeTest, TsvGolden) {
  sparql::ResultTable t({"s", "v"});
  const sparql::ResultTable::Cell row0[] = {
      t.Own(rdf::Term::Iri("http://x/a")), t.Own(rdf::Term::Literal("plain"))};
  t.AddRow(row0);
  const sparql::ResultTable::Cell row1[] = {t.Own(rdf::Term::Blank("b0")),
                                            rdf::kInvalidTermId};
  t.AddRow(row1);
  EXPECT_EQ(ResultTableTsv(t, /*is_ask=*/false),
            "?s\t?v\n<http://x/a>\t\"plain\"\n_:b0\t\n");
}

TEST(ServeSerializeTest, SerializationIsDeterministic) {
  rdf::TripleStore store = MakeStore();
  sparql::QueryEngine engine(&store);
  const char* q = "SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?s ?o";
  auto a = engine.ExecuteString(q);
  auto b = engine.ExecuteString(q);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(ResultTableJson(a.ValueOrDie(), false),
            ResultTableJson(b.ValueOrDie(), false));
  EXPECT_EQ(ResultTableTsv(a.ValueOrDie(), false),
            ResultTableTsv(b.ValueOrDie(), false));
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

class ServePlanCacheTest : public ::testing::Test {
 protected:
  ServePlanCacheTest() : store_(MakeStore()), engine_(&store_) {}

  sparql::QueryPlan PlanFor(const std::string& text) {
    auto q = sparql::ParseQuery(text);
    LODVIZ_CHECK_OK(q.status());
    return engine_.Plan(q.ValueOrDie());
  }

  rdf::TripleStore store_;
  sparql::QueryEngine engine_;
};

TEST_F(ServePlanCacheTest, MissThenHit) {
  PlanCache cache(4);
  EXPECT_EQ(cache.Lookup(1, "k1"), nullptr);
  cache.Insert(1, "k1", PlanFor("SELECT ?s WHERE { ?s ?p ?o }"));
  auto hit = cache.Lookup(1, "k1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(ServePlanCacheTest, LruEvictsOldest) {
  PlanCache cache(2);
  const sparql::QueryPlan plan = PlanFor("SELECT ?s WHERE { ?s ?p ?o }");
  cache.Insert(1, "k1", plan);
  cache.Insert(2, "k2", plan);
  // Touch k1 so k2 becomes the LRU victim.
  EXPECT_NE(cache.Lookup(1, "k1"), nullptr);
  cache.Insert(3, "k3", plan);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.Lookup(1, "k1"), nullptr);
  EXPECT_EQ(cache.Lookup(2, "k2"), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(3, "k3"), nullptr);
}

TEST_F(ServePlanCacheTest, FingerprintCollisionIsMissNotWrongPlan) {
  PlanCache cache(4);
  cache.Insert(42, "query-A", PlanFor("SELECT ?s WHERE { ?s ?p ?o }"));
  // Same fingerprint, different canonical bytes: must NOT return A's plan.
  obs::Counter& collisions = obs::MetricRegistry::Global().GetCounter(
      "serve.plan_cache.collisions");
  const uint64_t before = collisions.value();
  EXPECT_EQ(cache.Lookup(42, "query-B"), nullptr);
  EXPECT_EQ(collisions.value(), before + 1);
}

TEST_F(ServePlanCacheTest, CountersAdvance) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter& hits = reg.GetCounter("serve.plan_cache.hits");
  obs::Counter& misses = reg.GetCounter("serve.plan_cache.misses");
  obs::Counter& evictions = reg.GetCounter("serve.plan_cache.evictions");
  const uint64_t h0 = hits.value(), m0 = misses.value(),
                 e0 = evictions.value();
  PlanCache cache(1);
  const sparql::QueryPlan plan = PlanFor("SELECT ?s WHERE { ?s ?p ?o }");
  EXPECT_EQ(cache.Lookup(1, "k1"), nullptr);  // miss
  cache.Insert(1, "k1", plan);
  EXPECT_NE(cache.Lookup(1, "k1"), nullptr);  // hit
  cache.Insert(2, "k2", plan);                // evicts k1
  EXPECT_EQ(hits.value(), h0 + 1);
  EXPECT_EQ(misses.value(), m0 + 1);
  EXPECT_EQ(evictions.value(), e0 + 1);
}

TEST_F(ServePlanCacheTest, ZeroCapacityNeverStores) {
  PlanCache cache(0);
  cache.Insert(1, "k1", PlanFor("SELECT ?s WHERE { ?s ?p ?o }"));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1, "k1"), nullptr);
}

// ---------------------------------------------------------------------------
// Frontend
// ---------------------------------------------------------------------------

TEST(ServeFrontendTest, AnswersSelectAndAsk) {
  rdf::TripleStore store = MakeStore();
  Frontend frontend(&store, FrontendOptions());
  QueryRequest req;
  req.query = "SELECT ?s WHERE { ?s <http://x/q> <http://x/a> }";
  QueryResponse resp = frontend.Handle(req);
  EXPECT_EQ(resp.status, RequestStatus::kOk);
  EXPECT_EQ(resp.content_type, "application/sparql-results+json");
  EXPECT_NE(resp.body.find("http://x/b"), std::string::npos);
  EXPECT_FALSE(resp.plan_cache_hit);

  // Same query again: identical bytes, now from the plan cache.
  QueryResponse warm = frontend.Handle(req);
  EXPECT_TRUE(warm.plan_cache_hit);
  EXPECT_EQ(warm.body, resp.body);

  req.query = "ASK { ?s <http://x/p> \"hello\" }";
  req.format = ResultFormat::kTsv;
  resp = frontend.Handle(req);
  EXPECT_EQ(resp.status, RequestStatus::kOk);
  EXPECT_EQ(resp.body, "true\n");
}

TEST(ServeFrontendTest, ParseErrorIs400) {
  rdf::TripleStore store = MakeStore();
  Frontend frontend(&store, FrontendOptions());
  QueryRequest req;
  req.query = "SELECT ?s WHERE { ?s ?p ?o } LIMIT 99999999999999999999";
  QueryResponse resp = frontend.Handle(req);
  EXPECT_EQ(resp.status, RequestStatus::kBadRequest);
  EXPECT_EQ(resp.content_type, "text/plain");
}

TEST(ServeFrontendTest, BudgetExhaustionIs504) {
  rdf::TripleStore store;
  std::string doc;
  for (int i = 0; i < 100; ++i) {
    doc += "<http://x/s" + std::to_string(i) + "> <http://x/p> <http://x/o" +
           std::to_string(i) + "> .\n";
  }
  LODVIZ_CHECK_OK(rdf::LoadNTriplesString(doc, &store).status());
  FrontendOptions options;
  options.budget.max_intermediate_rows = 5;
  Frontend frontend(&store, options);
  QueryRequest req;
  req.query = "SELECT ?s ?o WHERE { ?s ?p ?o }";
  QueryResponse resp = frontend.Handle(req);
  EXPECT_EQ(resp.status, RequestStatus::kBudgetExceeded);
}

TEST(ServeFrontendTest, AdmissionControlShedsWhenSaturated) {
  rdf::TripleStore store = MakeStore();
  FrontendOptions options;
  options.max_concurrent = 0;  // every request is over the limit
  Frontend frontend(&store, options);
  obs::Counter& shed = obs::MetricRegistry::Global().GetCounter("serve.shed");
  const uint64_t before = shed.value();
  QueryRequest req;
  req.query = "SELECT ?s WHERE { ?s ?p ?o }";
  QueryResponse resp = frontend.Handle(req);
  EXPECT_EQ(resp.status, RequestStatus::kOverloaded);
  EXPECT_EQ(shed.value(), before + 1);
}

/// Served and direct answers to one query, both as JSON bytes; the served
/// one also says whether its plan came from the cache.
struct Answers {
  std::string served;
  std::string direct;
  bool plan_cache_hit = false;
};

Answers ServeAndExecute(Frontend* frontend, const rdf::TripleSource* source,
                        const std::string& query) {
  QueryRequest req;
  req.query = query;
  QueryResponse resp = frontend->Handle(req);
  EXPECT_EQ(resp.status, RequestStatus::kOk) << resp.body;
  const sparql::QueryEngine engine(source);
  auto direct = engine.ExecuteString(query);
  EXPECT_TRUE(direct.ok()) << direct.status().ToString();
  return {resp.body,
          direct.ok() ? ResultTableJson(direct.ValueOrDie(), false) : "",
          resp.plan_cache_hit};
}

/// A plan embeds each pattern constant as the id of its exact spelling, so
/// a literal spelled differently — even when it has the same value — must
/// not reuse the plan: the served answer must stay the direct one.
struct SpellingCase {
  const char* label;
  const char* stored;     // the object the store holds, as N-Triples
  const char* query;      // a query spelling of that same term
  const char* respelled;  // same value, other term: matches nothing
};

class ServePlanCacheSpellingTest
    : public ::testing::TestWithParam<SpellingCase> {};

TEST_P(ServePlanCacheSpellingTest, RespelledLiteralIsServedAsDirect) {
  const SpellingCase& c = GetParam();
  rdf::TripleStore store;
  LODVIZ_CHECK_OK(rdf::LoadNTriplesString(
                      std::string("<http://x/a> <http://x/v> ") + c.stored +
                          " .\n",
                      &store)
                      .status());
  Frontend frontend(&store, FrontendOptions());
  const std::string stored_q =
      std::string("SELECT ?s WHERE { ?s <http://x/v> ") + c.query + " }";
  const std::string respelled_q =
      std::string("SELECT ?s WHERE { ?s <http://x/v> ") + c.respelled + " }";

  const Answers first = ServeAndExecute(&frontend, &store, stored_q);
  EXPECT_EQ(first.served, first.direct);
  EXPECT_NE(first.served.find("http://x/a"), std::string::npos);

  const Answers second = ServeAndExecute(&frontend, &store, respelled_q);
  EXPECT_EQ(second.served, second.direct) << c.respelled;
  EXPECT_FALSE(second.plan_cache_hit);
  EXPECT_EQ(second.direct.find("http://x/a"), std::string::npos);

  // Each spelling now hits its own plan and still answers as direct.
  const Answers again = ServeAndExecute(&frontend, &store, respelled_q);
  EXPECT_TRUE(again.plan_cache_hit);
  EXPECT_EQ(again.served, again.direct);
  const Answers first_again = ServeAndExecute(&frontend, &store, stored_q);
  EXPECT_TRUE(first_again.plan_cache_hit);
  EXPECT_EQ(first_again.served, first_again.direct);
}

void PrintTo(const SpellingCase& c, std::ostream* os) { *os << c.label; }

INSTANTIATE_TEST_SUITE_P(
    Literals, ServePlanCacheSpellingTest,
    ::testing::Values(
        SpellingCase{"integer",
                     "\"30\"^^<http://www.w3.org/2001/XMLSchema#integer>",
                     "30",
                     "\"+30\"^^<http://www.w3.org/2001/XMLSchema#integer>"},
        SpellingCase{"dateTime",
                     "\"2020-01-01T00:00:00\"^^"
                     "<http://www.w3.org/2001/XMLSchema#dateTime>",
                     "\"2020-01-01T00:00:00\"^^"
                     "<http://www.w3.org/2001/XMLSchema#dateTime>",
                     "\"2020-01-01T00:00:00Z\"^^"
                     "<http://www.w3.org/2001/XMLSchema#dateTime>"}),
    [](const ::testing::TestParamInfo<SpellingCase>& info) {
      return std::string(info.param.label);
    });

// ---------------------------------------------------------------------------
// HTTP parsing (network-facing: hostile bytes must be clean errors)
// ---------------------------------------------------------------------------

TEST(ServeHttpTest, RequestRoundTrip) {
  const std::string raw =
      "POST /sparql HTTP/1.1\r\nHost: x\r\nContent-Type: "
      "application/x-www-form-urlencoded\r\nContent-Length: 11\r\n\r\n"
      "query=ASK%7B";
  auto len = HttpRequestLength(raw);
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(len.ValueOrDie(), raw.size() - 1);  // body is 11 of 12 bytes
  auto req = ParseHttpRequest(raw.substr(0, len.ValueOrDie()));
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->path, "/sparql");
  EXPECT_EQ(req->headers.at("content-type"),
            "application/x-www-form-urlencoded");
  EXPECT_EQ(req->body, "query=ASK%7");
}

TEST(ServeHttpTest, QueryStringDecoding) {
  auto req = ParseHttpRequest(
      "GET /sparql?query=SELECT%20%3Fs&format=json HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->params.at("query"), "SELECT ?s");
  EXPECT_EQ(req->params.at("format"), "json");
}

TEST(ServeHttpTest, HostileBytesAreErrors) {
  EXPECT_FALSE(ParseHttpRequest("GARBAGE\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequest("GET /x\r\n\r\n").ok());           // no version
  EXPECT_FALSE(ParseHttpRequest("GET /x FTP/1.0\r\n\r\n").ok());   // not HTTP
  EXPECT_FALSE(
      ParseHttpRequest("GET /x HTTP/1.1\r\nBadHeader\r\n\r\n").ok());
  EXPECT_FALSE(HttpRequestLength(
                   "GET /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
                   .ok());
  EXPECT_FALSE(HttpRequestLength(
                   "GET /x HTTP/1.1\r\nContent-Length: 1e9\r\n\r\n")
                   .ok());
  EXPECT_FALSE(PercentDecode("abc%").ok());
  EXPECT_FALSE(PercentDecode("abc%2").ok());
  EXPECT_FALSE(PercentDecode("abc%zz").ok());
}

TEST(ServeHttpTest, IncompleteRequestWantsMoreBytes) {
  auto no_head = HttpRequestLength("GET /x HTTP/1.1\r\n");
  ASSERT_TRUE(no_head.ok());
  EXPECT_EQ(no_head.ValueOrDie(), 0u);
  auto short_body =
      HttpRequestLength("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
  ASSERT_TRUE(short_body.ok());
  EXPECT_EQ(short_body.ValueOrDie(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrent serving (the serve TSan suite)
// ---------------------------------------------------------------------------

std::string BlockingFetch(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[2048];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ServeConcurrencyTest, ParallelClientsGetConsistentAnswers) {
  rdf::TripleStore store = MakeStore();
  Frontend frontend(&store, FrontendOptions());
  exec::ThreadPool pool(4);
  Server::Options sopts;
  sopts.port = 0;
  sopts.num_workers = 3;
  Server server(&frontend, &pool, sopts);
  LODVIZ_CHECK_OK(server.Start());
  const int port = server.port();

  const std::string request =
      "GET /sparql?query=SELECT%20%3Fs%20WHERE%20%7B%20%3Fs%20"
      "%3Chttp%3A%2F%2Fx%2Fq%3E%20%3Fo%20%7D HTTP/1.1\r\nHost: x\r\n\r\n";
  const std::string reference = BlockingFetch(port, request);
  auto ref = ParseHttpResponse(reference);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref->status, 200) << ref->body;

  // 6 client threads x 10 requests racing against 3 server workers; all
  // bodies must be identical (std::thread is fine in tests).
  std::vector<std::thread> clients;
  std::vector<int> mismatches(6, 0);
  for (int c = 0; c < 6; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < 10; ++r) {
        auto resp = ParseHttpResponse(BlockingFetch(port, request));
        if (!resp.ok() || resp->status != 200 ||
            resp->body != ref->body) {
          ++mismatches[c];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < 6; ++c) EXPECT_EQ(mismatches[c], 0) << "client " << c;

  server.Stop();
  pool.Shutdown();
}

TEST(ServeConcurrencyTest, RankedDiskOrderByFromFourThreads) {
  // ORDER BY over a disk adapter reads the rdf::TermOrder it built at
  // construction; four threads share that order, the dictionary, the
  // pool and the plan cache through one Frontend, and every answer must
  // equal the serial one.
  rdf::TripleStore store;
  std::string doc;
  for (int i = 0; i < 300; ++i) {
    const std::string s = "<http://x/e" + std::to_string(i * 7 % 300) + ">";
    doc += s + " <http://x/cat> <http://x/c" + std::to_string(i % 3) + "> .\n";
    doc += s + " <http://x/age> \"" + std::to_string(i % 40) +
           "\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
    doc += s + " <http://x/name> \"n" + std::to_string(i % 17) + "\" .\n";
  }
  LODVIZ_CHECK_OK(rdf::LoadNTriplesString(doc, &store).status());
  store.Compact();
  std::vector<rdf::Triple> triples;
  store.Scan({}, [&](const rdf::Triple& t) {
    triples.push_back(t);
    return true;
  });
  const std::string path =
      "/tmp/lodviz_serve_ranked_" + std::to_string(::getpid()) + ".db";
  auto disk = storage::DiskTripleStore::Create(path, 8);
  LODVIZ_CHECK_OK(disk.status());
  LODVIZ_CHECK_OK(disk.ValueOrDie()->BulkLoad(std::move(triples)));
  const storage::DiskSourceAdapter source(disk.ValueOrDie().get(),
                                          &store.dict());
  ASSERT_NE(source.term_order(), nullptr);
  Frontend frontend(&source, FrontendOptions());

  const std::vector<std::string> queries = {
      "SELECT ?s WHERE { ?s <http://x/cat> <http://x/c1> } ORDER BY ?s",
      "SELECT ?s ?a WHERE { ?s <http://x/age> ?a } ORDER BY DESC(?a) ?s",
      "SELECT ?s ?n ?a WHERE { ?s <http://x/name> ?n . ?s <http://x/age> ?a }"
      " ORDER BY ?n DESC(?a) ?s LIMIT 50 OFFSET 5",
      "SELECT ?n (COUNT(*) AS ?k) WHERE { ?s <http://x/name> ?n } "
      "GROUP BY ?n ORDER BY DESC(?k) ?n",
  };
  std::vector<std::string> serial;
  for (const std::string& q : queries) {
    QueryRequest req;
    req.query = q;
    QueryResponse resp = frontend.Handle(req);
    ASSERT_EQ(resp.status, RequestStatus::kOk) << resp.body;
    serial.push_back(resp.body);
  }

  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < 25; ++r) {
        const size_t q = static_cast<size_t>(t + r) % queries.size();
        QueryRequest req;
        req.query = queries[q];
        req.format = r % 5 == 0 ? ResultFormat::kTsv : ResultFormat::kJson;
        const QueryResponse resp = frontend.Handle(req);
        if (resp.status != RequestStatus::kOk) {
          ++mismatches[t];
        } else if (req.format == ResultFormat::kJson &&
                   resp.body != serial[q]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  std::remove(path.c_str());
}

TEST(ServeConcurrencyTest, StopWhileClientsInFlight) {
  rdf::TripleStore store = MakeStore();
  Frontend frontend(&store, FrontendOptions());
  exec::ThreadPool pool(3);
  Server::Options sopts;
  sopts.port = 0;
  sopts.num_workers = 2;
  Server server(&frontend, &pool, sopts);
  LODVIZ_CHECK_OK(server.Start());
  const int port = server.port();

  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([port] {
      for (int r = 0; r < 5; ++r) {
        // Responses may be complete, refused, or cut off mid-stop; the
        // only requirement is no crash, race, or hang.
        BlockingFetch(port,
                      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
      }
    });
  }
  server.Stop();
  for (std::thread& t : clients) t.join();
  pool.Shutdown();
}

TEST(ServeConcurrencyTest, RestartAfterStop) {
  rdf::TripleStore store = MakeStore();
  Frontend frontend(&store, FrontendOptions());
  exec::ThreadPool pool(3);
  for (int round = 0; round < 2; ++round) {
    Server::Options sopts;
    sopts.port = 0;
    sopts.num_workers = 2;
    Server server(&frontend, &pool, sopts);
    LODVIZ_CHECK_OK(server.Start());
    auto resp = ParseHttpResponse(BlockingFetch(
        server.port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status, 200);
    server.Stop();
  }
  pool.Shutdown();
}

}  // namespace
}  // namespace lodviz::serve
