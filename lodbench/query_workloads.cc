// serve_http and disk_pool: closed-loop SPARQL clients against the
// serving layer, over the memory store (through HTTP) and over the disk
// store (in process).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "core/engine.h"
#include "data.h"
#include "exec/thread_pool.h"
#include "oracle.h"
#include "serve/frontend.h"
#include "serve/http.h"
#include "serve/server.h"
#include "storage/disk_source_adapter.h"
#include "storage/disk_triple_store.h"
#include "storage/page_file.h"
#include "trace.h"
#include "workloads.h"

namespace lodbench {
namespace {

using lodviz::core::Engine;

/// Distinct query texts; op streams hold indexes into it.
class Catalogue {
 public:
  uint32_t Intern(std::string text) {
    auto [it, inserted] =
        ids_.emplace(text, static_cast<uint32_t>(texts_.size()));
    if (inserted) texts_.push_back(std::move(text));
    return it->second;
  }
  const std::string& text(uint32_t id) const { return texts_[id]; }
  size_t size() const { return texts_.size(); }

 private:
  std::vector<std::string> texts_;
  std::unordered_map<std::string, uint32_t> ids_;
};

std::string Angle(const std::string& iri) { return "<" + iri + ">"; }

// Every query orders its rows on all projected variables, so its answer
// is fully determined and can be compared byte for byte.
std::string LookupQuery(size_t e) {
  return "SELECT ?p ?o WHERE { " + Angle(EntityIri(e)) +
         " ?p ?o } ORDER BY ?p ?o";
}
std::string TwoHopQuery(size_t e) {
  return "SELECT ?b ?c WHERE { " + Angle(EntityIri(e)) + " " +
         Angle(iri::kKnows) + " ?b . ?b " + Angle(iri::kKnows) +
         " ?c } ORDER BY ?b ?c";
}
std::string NeighbourhoodQuery(size_t e) {
  return "SELECT ?n ?label WHERE { " + Angle(EntityIri(e)) + " " +
         Angle(iri::kKnows) + " ?n . ?n " + Angle(iri::kLabel) +
         " ?label } ORDER BY ?n ?label";
}
/// A POS index range: every entity of one category. The categories cycle
/// through the less popular half of the Zipf distribution (about 1,000
/// to 2,000 entities each), the same list for every seed.
std::string CategoryRangeQuery(size_t k) {
  return "SELECT ?s WHERE { ?s " + Angle(iri::kCategory) + " " +
         Angle(iri::kCategoryValue + std::to_string(6 + k % 6)) +
         " } ORDER BY ?s";
}

/// The exploration queries of the e14 serving bench, with tie-breaking
/// sort keys added so that LIMIT cuts a fully determined answer.
const char* const kExplorationQueries[] = {
    "SELECT ?s ?age WHERE { "
    "?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://lod.example/ontology/Person> ; "
    "<http://lod.example/ontology/age> ?age . FILTER(?age > 60) } "
    "ORDER BY DESC(?age) ?s LIMIT 100",
    "SELECT ?cat (COUNT(*) AS ?n) WHERE { "
    "?s <http://lod.example/ontology/category> ?cat } GROUP BY ?cat "
    "ORDER BY DESC(?n) ?cat",
    "SELECT ?s ?label WHERE { ?s <http://lod.example/ontology/age> ?age . "
    "OPTIONAL { ?s <http://www.w3.org/2000/01/rdf-schema#label> ?label . } "
    "FILTER(?age < 20) } ORDER BY ?s ?label LIMIT 200",
    "ASK { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
    "<http://lod.example/ontology/Place> }",
};

/// Zipf-popular entities; ranks map through a seeded permutation so the
/// popular ones are spread over the store instead of clustered by id.
class EntityPicker {
 public:
  EntityPicker(size_t n, double alpha, Rng& rng) : zipf_(n, alpha), perm_(n) {
    std::iota(perm_.begin(), perm_.end(), size_t{0});
    for (size_t i = n; i > 1; --i) {
      std::swap(perm_[i - 1], perm_[rng.Uniform(i)]);
    }
  }
  size_t Pick(Rng& rng) const { return perm_[zipf_.Sample(rng)]; }

 private:
  ZipfSampler zipf_;
  std::vector<size_t> perm_;
};

using Streams = std::vector<std::vector<uint32_t>>;

/// One op stream per client. Op kinds follow `mix` cyclically (one letter
/// per op, the same for every seed) so every seed runs the same blend;
/// the seed picks entities and parameters.
Streams BuildStreams(size_t clients, size_t per_client, std::string_view mix,
                     const std::function<std::string(char, size_t)>& make,
                     Catalogue* catalogue) {
  Streams streams(clients);
  for (size_t c = 0; c < clients; ++c) {
    streams[c].reserve(per_client);
    for (size_t k = 0; k < per_client; ++k) {
      const size_t position = c * 7 + k;  // clients start at different ops
      streams[c].push_back(
          catalogue->Intern(make(mix[position % mix.size()], position)));
    }
  }
  return streams;
}

struct Sample {
  uint32_t query = 0;
  int status = 0;
  uint64_t hash = 0;
  double ms = 0;
};

/// Runs `clients` closed-loop clients for `seconds`: each sends its next
/// op only after the previous one returned. `op(client, query, &body)`
/// returns the response status; its latency is timed around the call and
/// the body is hashed after the clock stops. Returns the window's length
/// (start to last completion).
using OpFn = std::function<int(size_t, uint32_t, std::string*)>;

double ClosedLoop(size_t clients, double seconds, const Streams& streams,
                  std::vector<size_t>* cursors,
                  std::vector<std::vector<Sample>>* samples, const OpFn& op) {
  samples->assign(clients, {});
  std::vector<int64_t> last_end(clients, 0);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<uint32_t>& stream = streams[c];
      size_t& cursor = (*cursors)[c];
      std::string body;
      int64_t now = NowNs();
      while (now < deadline) {
        Sample s;
        s.query = stream[cursor++ % stream.size()];
        body.clear();
        s.status = op(c, s.query, &body);
        const int64_t end = NowNs();
        s.ms = static_cast<double>(end - now) / 1e6;
        s.hash = HashBytes(body);
        (*samples)[c].push_back(s);
        last_end[c] = end;
        now = NowNs();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const int64_t end = *std::max_element(last_end.begin(), last_end.end());
  return static_cast<double>(std::max(end, start + 1) - start) / 1e9;
}

/// Latency percentiles of one window.
struct WindowStats {
  double p50_ms = 0, p95_ms = 0, mean_ms = 0;
  size_t count = 0;
};

WindowStats Summarize(const std::vector<std::vector<Sample>>& samples) {
  std::vector<double> ms;
  for (const auto& client : samples) {
    for (const Sample& s : client) ms.push_back(s.ms);
  }
  WindowStats w;
  w.count = ms.size();
  w.mean_ms = Mean(ms);
  w.p50_ms = Percentile(ms, 0.50);
  w.p95_ms = Percentile(ms, 0.95);
  return w;
}

/// Samples of the untraced run's rounds, merged.
struct Rounds {
  explicit Rounds(size_t clients) : samples(clients) {}

  /// Adds one round's window and the round's peak resident memory (set-up
  /// and window).
  void Add(const std::vector<std::vector<Sample>>& window, double seconds,
           double rss_mb) {
    for (size_t c = 0; c < window.size(); ++c) {
      samples[c].insert(samples[c].end(), window[c].begin(), window[c].end());
    }
    wall_s += seconds;
    peak_rss_mb.push_back(rss_mb);
  }

  std::vector<std::vector<Sample>> samples;
  double wall_s = 0;
  std::vector<double> peak_rss_mb;
};

/// Judges every sample against the reference stores; reference answers
/// are computed once per distinct query, after the window.
Verdicts Judge(const std::vector<std::vector<Sample>>& samples,
               const Catalogue& catalogue, ReferenceStores& refs) {
  std::vector<std::optional<uint64_t>> set_hash(catalogue.size()),
      bag_hash(catalogue.size());
  auto reference = [&](std::vector<std::optional<uint64_t>>& cache,
                       lodviz::rdf::TripleStore& store, uint32_t q) {
    if (!cache[q]) {
      cache[q] = HashBytes(ReferenceAnswer(store, catalogue.text(q)));
    }
    return *cache[q];
  };
  Verdicts v;
  for (const auto& client : samples) {
    for (const Sample& s : client) {
      if (s.status != 200) {
        v.Failed(s.status == 503);
        continue;
      }
      v.Judge(s.hash, [&] { return reference(set_hash, refs.set(), s.query); },
              [&] { return reference(bag_hash, refs.bag(), s.query); });
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// serve_http
// ---------------------------------------------------------------------------

std::string PercentEncode(const std::string& s) {
  static const char* hex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : s) {
    if (isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(hex[c >> 4]);
      out.push_back(hex[c & 0xF]);
    }
  }
  return out;
}

/// One HTTP exchange on a fresh loopback connection (the server closes
/// after each response). Returns the raw response, empty on failure.
std::string Fetch(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct timeval tv = {30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  std::string response;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    char chunk[16384];
    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      response.append(chunk, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

/// Status and body of a raw response (status 0 when unparseable).
int SplitResponse(const std::string& raw, std::string* body) {
  lodviz::Result<lodviz::serve::HttpResponse> r =
      lodviz::serve::ParseHttpResponse(raw);
  if (!r.ok()) return 0;
  *body = std::move(r.ValueOrDie().body);
  return r.ValueOrDie().status;
}

/// The system under test for serve_http: engine, frontend and server.
struct ServeStack {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<lodviz::serve::Frontend> frontend;
  std::unique_ptr<lodviz::exec::ThreadPool> pool;
  std::unique_ptr<lodviz::serve::Server> server;

  ~ServeStack() {
    if (server) server->Stop();
    if (pool) pool->Shutdown();
  }
};

constexpr size_t kServeEntities = 4000;
/// The untraced run's window is split over this many rounds, each on a
/// system set up afresh under a different PlacementShift. Single-threaded
/// set-up speed on the shared host switches between two levels ~1.5x
/// apart every few seconds, so set-ups are spread over the whole run.
constexpr size_t kServeRounds = 12;
/// Extra set-ups per round, each under its own shift, timed for setup_s
/// and ingest_triples_per_s only (a set-up is cheap here).
constexpr size_t kServeExtraSetups = 1;
// L = Zipf entity lookup, T = two-hop knows path, H = exploration query.
// One exploration query per 40 requests keeps the store lock free most of
// the time, so the median is a lookup that did not wait, while the 95th
// percentile is a request that waited behind an exploration query's scans.
constexpr std::string_view kServeMix =
    "LTLLLTLLLTLLLLTLLLLTLTLLLTLLLTLLLLTLLLLH";

}  // namespace

RunResult RunServeHttp(const RunOptions& o) {
  const Dataset data = GenerateDataset(o.seed, kServeEntities);
  const std::string document = ToNTriples(data.triples, 0, data.triples.size());
  ReferenceStores refs;
  refs.Add(data.triples, 0, data.triples.size());

  Rng rng(o.seed * 31 + 7);
  const EntityPicker picker(kServeEntities, 1.0, rng);
  Catalogue catalogue;
  const Streams streams = BuildStreams(
      o.clients, 4096, kServeMix,
      [&](char kind, size_t position) {
        switch (kind) {
          case 'H':
            return std::string(
                kExplorationQueries[position / kServeMix.size() % 4]);
          case 'T':
            return TwoHopQuery(picker.Pick(rng));
          default:
            return LookupQuery(picker.Pick(rng));
        }
      },
      &catalogue);
  std::vector<std::string> requests;
  for (size_t q = 0; q < catalogue.size(); ++q) {
    requests.push_back("GET /sparql?query=" + PercentEncode(catalogue.text(q)) +
                       " HTTP/1.1\r\nHost: lodbench\r\n\r\n");
  }

  // Each set-up loads its own copy of the document, made after the round's
  // PlacementShift, so that the input moves with the system's memory.
  std::vector<double> setup_s, load_s;
  auto set_up = [&](const std::string& input) {
    const int64_t t0 = NowNs();
    auto s = std::make_unique<ServeStack>();
    s->engine = std::make_unique<Engine>();
    MustOk(s->engine->LoadNTriples(input), "LoadNTriples");
    load_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    s->frontend = Must(s->engine->MakeFrontend(), "MakeFrontend");
    s->pool = std::make_unique<lodviz::exec::ThreadPool>(o.clients + 1);
    lodviz::serve::Server::Options server_options;
    server_options.num_workers = o.clients;
    s->server = std::make_unique<lodviz::serve::Server>(
        s->frontend.get(), s->pool.get(), server_options);
    MustOk(s->server->Start(), "Server::Start");
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    return s;
  };
  auto http_op = [&requests](int port) {
    return [&requests, port](size_t, uint32_t q, std::string* body) {
      return SplitResponse(Fetch(port, requests[q]), body);
    };
  };
  const double warm_up_s = std::min(0.25, o.seconds / 40);
  std::vector<size_t> cursors(o.clients, 0);
  std::vector<std::vector<Sample>> samples;

  RunResult result;
  if (!o.trace) {
    Rounds rounds(o.clients);
    double store_bytes = 0;
    for (size_t round = 0; round < kServeRounds; ++round) {
      for (size_t j = 0; j < kServeExtraSetups; ++j) {
        const PlacementShift probe(kServeRounds + round * kServeExtraSetups +
                                   j);
        set_up(std::string(document));
      }
      const PlacementShift shift(round);
      const std::string input = document;
      const PeakRss rss;
      const std::unique_ptr<ServeStack> stack = set_up(input);
      const auto op = http_op(stack->server->port());
      ClosedLoop(o.clients, warm_up_s, streams, &cursors, &samples, op);
      const double wall = ClosedLoop(o.clients, o.seconds / kServeRounds,
                                     streams, &cursors, &samples, op);
      rounds.Add(samples, wall, rss.Mb());
      store_bytes = static_cast<double>(stack->engine->store().MemoryUsage());
    }
    const Verdicts verdicts = Judge(rounds.samples, catalogue, refs);
    verdicts.ApplyTo(&result);
    const WindowStats w = Summarize(rounds.samples);
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.throughput_ops =
        Ratio(static_cast<double>(verdicts.right), rounds.wall_s);
    e.latency_p50_ms = w.p50_ms;
    e.latency_p95_ms = w.p95_ms;
    e.peak_rss_mb = Median(rounds.peak_rss_mb);
    e.store_bytes_per_triple =
        Ratio(store_bytes, static_cast<double>(refs.set().size()));
    e.ingest_triples_per_s =
        Ratio(static_cast<double>(data.triples.size()), Median(load_s));
    e.Emit(&result);
    std::cerr << "serve_http: " << w.count << " ops in " << rounds.wall_s
              << " s; distinct triples " << refs.set().size() << " of "
              << data.triples.size() << "\n";
    return result;
  }

  const std::unique_ptr<ServeStack> stack = set_up(document);
  const int port = stack->server->port();
  const auto op = http_op(port);
  ClosedLoop(o.clients, warm_up_s, streams, &cursors, &samples, op);

  // Traced run: half the window untraced, half traced (HTTP exchange,
  // then the same request replayed stage by stage in process).
  const double half = o.seconds / 2;
  ClosedLoop(o.clients, half, streams, &cursors, &samples, op);
  Verdicts verdicts = Judge(samples, catalogue, refs);
  const WindowStats untraced = Summarize(samples);

  Tracer tracer;
  PipelineReplay replay(&stack->engine->store(), 128, &tracer);
  std::vector<ReplayTotals> totals(o.clients);
  std::vector<std::vector<double>> transport(o.clients);
  std::atomic<uint64_t> next_request{1};
  CounterDelta deltas;
  ClosedLoop(
      o.clients, half, streams, &cursors, &samples,
      [&](size_t c, uint32_t q, std::string* body) {
        const uint64_t id = next_request.fetch_add(1);
        Span request(&tracer, "serve.request", id);
        int64_t http_ns;
        int status;
        {
          Span http(&tracer, "serve.http", id);
          status = SplitResponse(Fetch(port, requests[q]), body);
          http_ns = http.ElapsedNs();
        }
        Span pipeline(&tracer, "serve.replay", id);
        lodviz::Result<lodviz::serve::HttpRequest> parsed = [&] {
          Span s(&tracer, "serve.http_parse", id);
          return lodviz::serve::ParseHttpRequest(requests[q]);
        }();
        if (parsed.ok()) {
          replay.Run(parsed.ValueOrDie().params["query"], id, &totals[c]);
        }
        transport[c].push_back(
            static_cast<double>(http_ns - pipeline.ElapsedNs()) / 1e6);
        return status;
      });
  const std::map<std::string, uint64_t> counted = deltas.Take();
  verdicts.Merge(Judge(samples, catalogue, refs));
  verdicts.ApplyTo(&result);
  const WindowStats traced = Summarize(samples);

  ReplayTotals all;
  std::vector<double> transport_ms;
  for (size_t c = 0; c < o.clients; ++c) {
    all.Merge(totals[c]);
    transport_ms.insert(transport_ms.end(), transport[c].begin(),
                        transport[c].end());
  }
  Layers layers;
  FillQueryLayers(tracer, all, counted,
                  counted.at("serve.requests") + all.queries, false, &layers);
  layers.serve_transport_ms = Median(transport_ms);
  layers.rdf_ingest_us_per_triple =
      Median(load_s) * 1e6 / static_cast<double>(data.triples.size());
  layers.trace_overhead_frac = Ratio(traced.mean_ms, untraced.mean_ms) - 1.0;
  layers.Emit(&result);
  tracer.WriteJson(o.trace_dir + "/serve_http.json");
  return result;
}

// ---------------------------------------------------------------------------
// disk_pool
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kDiskEntities = 40000;
constexpr size_t kDiskPoolPages = 64;
/// Rounds of the untraced run, as for serve_http (fewer: a set-up loads
/// and mirrors 400k triples).
constexpr size_t kDiskRounds = 6;
// L = Zipf point lookup, N = 1-hop neighbourhood, R = category range scan.
constexpr char kDiskMix[] =
    "LNLLNLLNLLNLLNLLNLLNLLNLLNLLNLLNLLNLLNLR";

lodviz::serve::QueryResponse Handle(lodviz::serve::Frontend* frontend,
                                    const std::string& query) {
  lodviz::serve::QueryRequest request;
  request.query = query;
  return frontend->Handle(request);
}

}  // namespace

RunResult RunDiskPool(const RunOptions& o) {
  // The disk mirror is built from the compacted store, so duplicate rows
  // are wrong here: the reference is the set one alone.
  ReferenceStores refs;
  std::string document;
  size_t num_triples = 0;
  {
    const Dataset data = GenerateDataset(o.seed, kDiskEntities);
    document = ToNTriples(data.triples, 0, data.triples.size());
    refs.Add(data.triples, 0, data.triples.size(), /*with_bag=*/false);
    num_triples = data.triples.size();
  }

  Rng rng(o.seed * 31 + 11);
  const EntityPicker picker(kDiskEntities, 0.9, rng);
  Catalogue catalogue;
  const Streams streams = BuildStreams(
      o.clients, 16384, kDiskMix,
      [&](char kind, size_t position) {
        switch (kind) {
          case 'R':
            return CategoryRangeQuery(position / 40);
          case 'N':
            return NeighbourhoodQuery(picker.Pick(rng));
          default:
            return LookupQuery(picker.Pick(rng));
        }
      },
      &catalogue);

  const std::string page_file = o.workdir + "/disk_pool.pages";
  std::vector<double> setup_s, load_s, mirror_s;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<lodviz::serve::Frontend> frontend;
  auto set_up = [&](const std::string& input) {
    std::filesystem::remove(page_file);
    const int64_t t0 = NowNs();
    Engine::Options options;
    options.backend = Engine::Backend::kDisk;
    options.disk_path = page_file;
    options.pool_pages = kDiskPoolPages;
    engine = std::make_unique<Engine>(options);
    MustOk(engine->LoadNTriples(input), "LoadNTriples");
    const int64_t t1 = NowNs();
    frontend = Must(engine->MakeFrontend(), "MakeFrontend");  // builds mirror
    const int64_t t2 = NowNs();
    load_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    mirror_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  };
  auto page_file_bytes = [&] {
    const double bytes =
        static_cast<double>(std::filesystem::file_size(page_file));
    if (kDiskPoolPages * lodviz::storage::kPageSize * 8 > bytes) {
      std::cerr << "disk_pool: buffer pool is more than 1/8 of the " << bytes
                << "-byte page file\n";
      std::exit(2);
    }
    return bytes;
  };
  const double warm_up_s = std::min(0.5, o.seconds / 40);

  std::vector<size_t> cursors(o.clients, 0);
  std::vector<std::vector<Sample>> samples;
  auto frontend_op = [&catalogue](lodviz::serve::Frontend* f) {
    return [&catalogue, f](size_t, uint32_t q, std::string* body) {
      lodviz::serve::QueryResponse r = Handle(f, catalogue.text(q));
      *body = std::move(r.body);
      return static_cast<int>(r.status);
    };
  };

  RunResult result;
  if (!o.trace) {
    Rounds rounds(o.clients);
    double file_bytes = 0;
    for (size_t round = 0; round < kDiskRounds; ++round) {
      frontend.reset();  // the previous round's system
      engine.reset();
      const PlacementShift shift(round);
      const std::string input = document;  // see serve_http's set_up
      const PeakRss rss;
      set_up(input);
      file_bytes = page_file_bytes();
      const auto op = frontend_op(frontend.get());
      // Warm-up fills the buffer pool; discarded.
      ClosedLoop(o.clients, warm_up_s, streams, &cursors, &samples, op);
      const double wall = ClosedLoop(o.clients, o.seconds / kDiskRounds,
                                     streams, &cursors, &samples, op);
      rounds.Add(samples, wall, rss.Mb());
    }
    const Verdicts verdicts = Judge(rounds.samples, catalogue, refs);
    verdicts.ApplyTo(&result);
    const WindowStats w = Summarize(rounds.samples);
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.throughput_ops =
        Ratio(static_cast<double>(verdicts.right), rounds.wall_s);
    e.latency_p50_ms = w.p50_ms;
    e.latency_p95_ms = w.p95_ms;
    e.peak_rss_mb = Median(rounds.peak_rss_mb);
    e.store_bytes_per_triple =
        Ratio(file_bytes, static_cast<double>(refs.set().size()));
    e.ingest_triples_per_s =
        Ratio(static_cast<double>(num_triples), Median(load_s));
    e.Emit(&result);
    std::cerr << "disk_pool: " << w.count << " ops in " << rounds.wall_s
              << " s; page file " << file_bytes << " bytes, pool "
              << kDiskPoolPages << " pages\n";
    return result;
  }

  set_up(document);
  page_file_bytes();

  // Traced run. The engine keeps its disk mirror private, so the replay
  // runs over a replica built the way Engine builds its mirror (same
  // triples, leaf format and pool size); its BufferPool counters are this
  // run's storage counters. Both halves of the window use the replica:
  // Frontend::Handle untraced, then the stage-by-stage replay traced.
  const std::string replica_file = o.workdir + "/disk_pool.replica.pages";
  auto replica = Must(lodviz::storage::DiskTripleStore::Create(
                          replica_file, kDiskPoolPages),
                      "DiskTripleStore::Create");
  {
    std::vector<lodviz::rdf::Triple> triples;
    engine->store().Scan({}, [&](const lodviz::rdf::Triple& t) {
      triples.push_back(t);
      return true;
    });
    MustOk(replica->BulkLoad(std::move(triples)), "BulkLoad");
  }
  lodviz::storage::DiskSourceAdapter replica_source(replica.get(),
                                                    &engine->store().dict());
  lodviz::serve::Frontend replica_frontend(&replica_source, {});
  const auto replica_op = frontend_op(&replica_frontend);
  ClosedLoop(o.clients, warm_up_s, streams, &cursors, &samples,
             replica_op);  // warms the replica's pool
  const double half = o.seconds / 2;
  ClosedLoop(o.clients, half, streams, &cursors, &samples, replica_op);
  Verdicts verdicts = Judge(samples, catalogue, refs);
  const WindowStats untraced = Summarize(samples);

  Tracer tracer;
  PipelineReplay replay(&replica_source, 128, &tracer);
  std::vector<ReplayTotals> totals(o.clients);
  std::atomic<uint64_t> next_request{1};
  const lodviz::storage::BufferPool& pool = replica->pool();
  const uint64_t hits0 = pool.hits(), misses0 = pool.misses(),
                 evictions0 = pool.evictions();
  CounterDelta deltas;
  ClosedLoop(
      o.clients, half, streams, &cursors, &samples,
      [&](size_t c, uint32_t q, std::string* body) {
        const uint64_t id = next_request.fetch_add(1);
        *body = replay.Run(catalogue.text(q), id, &totals[c]);
        return body->rfind("error: ", 0) == 0 ? 500 : 200;
      });
  const std::map<std::string, uint64_t> counted = deltas.Take();
  verdicts.Merge(Judge(samples, catalogue, refs));
  verdicts.ApplyTo(&result);
  const WindowStats traced = Summarize(samples);

  ReplayTotals all;
  for (const ReplayTotals& t : totals) all.Merge(t);
  Layers layers;
  FillQueryLayers(tracer, all, counted,
                  counted.at("serve.requests") + all.queries, true, &layers);
  const double hits = static_cast<double>(pool.hits() - hits0);
  const double misses = static_cast<double>(pool.misses() - misses0);
  const double queries = static_cast<double>(all.queries);
  layers.storage_pool_hit_rate = Ratio(hits, hits + misses);
  layers.storage_pool_misses_per_query = Ratio(misses, queries);
  layers.storage_pool_evictions_per_query =
      Ratio(static_cast<double>(pool.evictions() - evictions0), queries);
  layers.storage_mirror_build_s = Median(mirror_s);
  layers.rdf_ingest_us_per_triple =
      Median(load_s) * 1e6 / static_cast<double>(num_triples);
  layers.trace_overhead_frac = Ratio(traced.mean_ms, untraced.mean_ms) - 1.0;
  layers.Emit(&result);
  tracer.WriteJson(o.trace_dir + "/disk_pool.json");
  return result;
}

}  // namespace lodbench
