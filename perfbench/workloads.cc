#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <string_view>
#include <unordered_set>

#include "harness/datasets.h"
#include "index/evaluator.h"
#include "index/m_star_index.h"
#include "mutate/incremental_maintainer.h"
#include "mutate/random_batch.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "query/data_evaluator.h"
#include "server/answer_cache.h"
#include "server/concurrent_session.h"
#include "server/query_server.h"
#include "spans.h"
#include "storage/graph_io.h"
#include "util/rng.h"
#include "workload/fup_extractor.h"
#include "workload/generator.h"
#include "workload/label_paths.h"

namespace perfbench {
namespace {

using mrx::DataGraph;
using mrx::PathExpression;
using mrx::QueryResult;
using mrx::server::ConcurrentSession;
using mrx::server::ConcurrentSessionOptions;

// Inputs. The graphs and the multiset of stream queries are fixed; the
// run's seed picks the order the queries arrive in and the mutation
// batches.
struct Dataset {
  const char* file;
  const char* generator;
  size_t nodes;
  uint64_t generator_seed;
};
constexpr Dataset kNasa{"nasa-100k.mrxg", "nasa", 100000, 11};
constexpr Dataset kXMark{"xmark-100k.mrxg", "xmark", 100000, 7};

constexpr size_t kStreamLength = 500;  // §5: 500 queries per dataset.
constexpr uint64_t kStreamSeed = 1;    // Generator seed of the stream.
constexpr size_t kMaxQueryLength = 9;  // §5: length limit 9.
constexpr size_t kRefineAfter = 2;
constexpr size_t kMutationOps = 4;     // Operations per mutation batch.
// mutate-xmark converges once in set-up and this many more times after the
// window, so its converge_s and index size are medians of five.
constexpr size_t kExtraConvergences = 4;
constexpr size_t kReplayMutations = 3;  // Batches of the maintainer replay.
constexpr size_t kProbeQueries = 100;   // Queries of the traced server probe.

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double Sec(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// What one querying thread saw. Latencies and the §5 cost are kept for
/// misses only (queries the index evaluated); hits are only counted.
struct QueryLog {
  uint64_t queries = 0;
  uint64_t query_ns = 0;  // Wall time of the passes (and drains) it timed.
  uint64_t hits = 0;
  uint64_t precise_misses = 0;
  uint64_t logical_cost = 0;  // index nodes visited + data nodes validated
  std::vector<double> miss_us;
  AnswerSet answers;

  void Record(uint32_t query, uint32_t version, const QueryResult& r,
              bool hit, uint64_t ns) {
    ++queries;
    answers.Add({query, version, hit, Digest(r.answer)}, 1);
    if (hit) {
      ++hits;
      return;
    }
    miss_us.push_back(Us(ns));
    logical_cost += r.stats.index_nodes_visited + r.stats.data_nodes_validated;
    if (r.precise) ++precise_misses;
  }

  void Merge(QueryLog&& other) {
    queries += other.queries;
    query_ns += other.query_ns;
    hits += other.hits;
    precise_misses += other.precise_misses;
    logical_cost += other.logical_cost;
    miss_us.insert(miss_us.end(), other.miss_us.begin(), other.miss_us.end());
    answers.Merge(other.answers);
  }

  uint64_t misses() const { return queries - hits; }
};

/// The graph and the query stream. Queries are referred to by their index
/// in `queries` (generation order); `order` is the arrival order.
struct Inputs {
  std::shared_ptr<const DataGraph> graph;
  std::vector<PathExpression> queries;
  std::vector<uint32_t> order;
  std::vector<uint32_t> distinct;    // One index per distinct query.
  std::vector<uint32_t> promotions;  // FUP promotion order under `order`.
  size_t labels = 0;                 // Labels that occur in the graph.

  /// Draws a new arrival order and the promotion order it implies: two
  /// passes over the stream give every query its second observation.
  void Reorder(mrx::Rng& rng) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Next() % i]);
    }
    promotions.clear();
    mrx::FupExtractor fups(mrx::FupExtractor::Options{kRefineAfter, 0});
    for (int pass = 0; pass < 2; ++pass) {
      for (uint32_t q : order) {
        if (fups.Observe(queries[q])) promotions.push_back(q);
      }
    }
  }

  std::vector<PathExpression> PromotedFups() const {
    std::vector<PathExpression> fups;
    for (uint32_t q : promotions) fups.push_back(queries[q]);
    return fups;
  }
};

bool LoadInputs(const Dataset& dataset, const RunOptions& options,
                Inputs* in, std::string* error) {
  {
    Span span("storage.load");
    auto loaded = mrx::storage::LoadDataGraphFromFile(
        (std::filesystem::path(options.data_dir) / dataset.file).string());
    if (!loaded.ok()) {
      *error = loaded.status().ToString();
      return false;
    }
    in->graph = std::make_shared<const DataGraph>(std::move(loaded).value());
  }
  mrx::LabelPathSet paths;
  {
    Span span("workload.enumerate");
    mrx::LabelPathEnumerationOptions eo;
    eo.max_length = kMaxQueryLength;
    paths = mrx::EnumerateLabelPaths(*in->graph, eo);
  }
  {
    Span span("workload.generate");
    mrx::WorkloadOptions wo;
    wo.num_queries = kStreamLength;
    wo.max_query_length = kMaxQueryLength;
    wo.seed = kStreamSeed;
    in->queries = mrx::GenerateWorkload(paths, wo);
  }
  if (in->queries.empty()) {
    *error = "the graph yields an empty query stream";
    return false;
  }
  std::unordered_set<std::string> seen;
  for (uint32_t q = 0; q < in->queries.size(); ++q) {
    if (in->queries[q].HasDescendantAxis()) {
      *error = "the stream holds a descendant-axis query";
      return false;
    }
    if (seen.insert(in->queries[q].ToString(in->graph->symbols())).second) {
      in->distinct.push_back(q);
    }
    in->order.push_back(q);
  }
  const auto offsets = in->graph->label_bucket_offsets();
  for (size_t l = 0; l + 1 < offsets.size(); ++l) {
    if (offsets[l + 1] > offsets[l]) ++in->labels;
  }
  return true;
}

ConcurrentSessionOptions SessionOptions(bool cache) {
  ConcurrentSessionOptions o;
  o.refine_after = kRefineAfter;
  o.cache_results = cache;
  o.refine_threads = 1;
  return o;
}

mrx::mutate::RandomBatchOptions BatchOptions() {
  mrx::mutate::RandomBatchOptions o;
  o.num_ops = kMutationOps;
  return o;
}

uint64_t MutationSeed(uint64_t seed) {
  return seed * 0x9e3779b97f4a7c15ULL + 1;
}

/// Published index size, read from the gauges the session sets at publish.
struct IndexSize {
  int64_t nodes = 0;
  int64_t edges = 0;
};
IndexSize PublishedSize() {
  auto& registry = mrx::obs::MetricsRegistry::Global();
  return {registry.GetGauge("mrx_index_physical_nodes")->Value(),
          registry.GetGauge("mrx_index_physical_edges")->Value()};
}

/// State of one run, filled by the workload and read by the reports.
struct Run {
  const RunOptions& options;
  Inputs in;
  mrx::Rng order_rng;
  RunReport report;
  uint64_t request = 0;  // Last request id handed out.
  uint64_t setup_ns = 0;
  std::vector<double> converge_s;
  std::vector<double> drain_ms;
  std::vector<double> index_nodes;
  std::vector<double> index_edges;
  std::vector<double> mutation_ms;
  uint64_t publications = 0;  // During the last convergence.
  size_t components = 0;      // Published by the last convergence.
  IndexSize converged;        // Published size after the last convergence.
  QueryLog loop;              // The measured window's queries.
  double peak_rss_mb = 0;     // At the end of the window.
  double overhead = 0;        // Traced over untraced miss p50.
  // The window's mutation batches in version order: batch i made version
  // i + 1. The answer check rebuilds the versions from them.
  std::vector<mrx::mutate::MutationBatch> batches;

  explicit Run(const RunOptions& o) : options(o), order_rng(o.seed) {}

  void Fail(const std::string& problem) {
    report.correct = false;
    report.problems.push_back(problem);
  }
  void EndSetup() { setup_ns = NowNs() - options.start_ns; }
};

/// One Query on a session from its only querying thread, so the change in
/// cache_hits() tells a hit from a miss.
void SessionQuery(ConcurrentSession& session, Run& run, uint32_t q,
                  QueryLog* log) {
  Span span("server.session_query", ++run.request);
  const uint64_t hits_before = session.cache_hits();
  const uint64_t t0 = NowNs();
  ConcurrentSession::VersionedAnswer a =
      session.QueryVersioned(run.in.queries[q]);
  const uint64_t ns = NowNs() - t0;
  span.End();
  log->Record(q, static_cast<uint32_t>(a.graph_version), a.result,
              session.cache_hits() != hits_before, ns);
}

/// The Figure 5 loop from A(0) to convergence: two passes over the stream
/// in arrival order, then DrainRefinements. Records the wall time from the
/// first query until the last promotion is published, and the index the
/// session then publishes.
void Converge(Run& run, ConcurrentSession& session, QueryLog* log) {
  const uint64_t t0 = NowNs();
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t q : run.in.order) SessionQuery(session, run, q, log);
  }
  const uint64_t d0 = NowNs();
  {
    Span span("server.drain", ++run.request);
    session.DrainRefinements();
  }
  const uint64_t end = NowNs();
  log->query_ns += end - t0;
  run.drain_ms.push_back(Ms(end - d0));
  run.converge_s.push_back(Sec(end - t0));
  if (session.refinements_applied() != run.in.promotions.size()) {
    run.Fail("session promoted " +
             std::to_string(session.refinements_applied()) +
             " FUPs, the stream has " +
             std::to_string(run.in.promotions.size()));
  }
  run.publications = session.index_publications();
  run.components = session.published_components();
  run.converged = PublishedSize();
  run.index_nodes.push_back(static_cast<double>(run.converged.nodes));
  run.index_edges.push_back(static_cast<double>(run.converged.edges));
}

/// Sets mrx::fault::inject_extent_drop for the measured window only.
class FaultWindow {
 public:
  explicit FaultWindow(bool on)
      : previous_(mrx::fault::inject_extent_drop.exchange(on)) {}
  ~FaultWindow() { mrx::fault::inject_extent_drop.store(previous_); }
  FaultWindow(const FaultWindow&) = delete;
  FaultWindow& operator=(const FaultWindow&) = delete;

 private:
  bool previous_;
};

/// Ratio of the traced half's miss p50 to the untraced half's.
double Overhead(const QueryLog& traced, const QueryLog& untraced) {
  const double base = Percentile(untraced.miss_us, 0.5);
  return base > 0 ? Percentile(traced.miss_us, 0.5) / base : 0;
}

/// Runs `window(seconds, log)` over the measured window: once untraced, or
/// for a traced run as an untraced and a traced half.
template <typename Window>
void MeasuredWindow(Run& run, Window window) {
  FaultWindow fault(run.options.fault);
  QueryLog untraced;
  if (run.options.trace) {
    EnableSpans(false);
    window(run.options.seconds / 2, &untraced);
    EnableSpans(true);
    window(run.options.seconds / 2, &run.loop);
  } else {
    window(run.options.seconds, &run.loop);
  }
  run.peak_rss_mb = PeakRssMb();
  run.overhead = Overhead(run.loop, untraced);
  run.loop.Merge(std::move(untraced));
}

/// Applies one seeded batch through ApplyMutations, timing the call until it
/// returns (the new version is then published). Returns whether it applied.
bool ApplyBatch(Run& run, ConcurrentSession& session, mrx::Rng& rng,
                mrx::mutate::MutationBatch* batch) {
  *batch = mrx::mutate::GenerateRandomBatch(rng, *session.graph_snapshot(),
                                            BatchOptions());
  Span span("server.apply_mutations", ++run.request);
  const uint64_t t0 = NowNs();
  const auto receipt = session.ApplyMutations(*batch);
  const uint64_t ns = NowNs() - t0;
  span.End();
  ++run.report.attempted;
  if (!receipt.ok()) {
    ++run.report.failed;
    return false;
  }
  run.mutation_ms.push_back(Ms(ns));
  return true;
}

/// More convergences from A(0) after the window, each in a new order.
void ExtraConvergences(Run& run) {
  for (size_t c = 0; c < kExtraConvergences; ++c) {
    run.in.Reorder(run.order_rng);
    ConcurrentSession session(*run.in.graph, SessionOptions(true));
    QueryLog log;
    Converge(run, session, &log);
  }
}

/// Every promoted FUP of a converged session is answered precisely, with
/// nothing validated.
void CheckPromotedPrecise(Run& run, ConcurrentSession& session) {
  const Inputs& in = run.in;
  for (uint32_t q : in.promotions) {
    QueryResult r = session.Peek(in.queries[q]);
    if (!r.precise || r.stats.data_nodes_validated != 0) {
      run.Fail("promoted FUP " + in.queries[q].ToString(in.graph->symbols()) +
               " still validates " +
               std::to_string(r.stats.data_nodes_validated) + " nodes");
      return;
    }
  }
}

/// |labels| <= index nodes <= Σ |A(i)| over the components the last
/// convergence published. The bound comes from the static build, a code
/// path separate from adaptive refinement.
void CheckIndexSize(Run& run) {
  const Inputs& in = run.in;
  const mrx::MStarIndex full = mrx::MStarIndex::BuildStaticHierarchy(
      *in.graph, static_cast<int>(run.components) - 1);
  int64_t bound = 0;
  for (size_t c = 0; c < full.num_components(); ++c) {
    bound += static_cast<int64_t>(full.component(c).num_nodes());
  }
  const int64_t nodes = run.converged.nodes;
  if (nodes < static_cast<int64_t>(in.labels) || nodes > bound) {
    run.Fail("index_nodes " + std::to_string(nodes) + " outside [" +
             std::to_string(in.labels) + ", " + std::to_string(bound) + "]");
  }
}

// ---------------------------------------------------------------------------
// The workloads. Each builds its session during set-up, ends set-up, then
// runs its measured window.

/// adapt-nasa: convergence from A(0), one client, cache on, repeated in a
/// new arrival order on a fresh session, in pairs until the window is used
/// up. The second session of each pair then takes one mutation batch, the
/// update cost a client pays once the index has adapted. A traced run
/// converges untraced first, then traced, for the tracing overhead.
void RunAdaptNasa(Run& run) {
  run.in.Reorder(run.order_rng);
  auto session = std::make_unique<ConcurrentSession>(*run.in.graph,
                                                     SessionOptions(true));
  run.EndSetup();
  const bool trace = run.options.trace;
  QueryLog untraced;
  mrx::Rng rng(MutationSeed(run.options.seed));
  mrx::mutate::MutationBatch batch;
  const uint64_t w0 = NowNs();
  {
    FaultWindow fault(run.options.fault);
    for (int rep = 0;; ++rep) {
      if (rep > 0) {
        run.in.Reorder(run.order_rng);
        session.reset();  // One session at a time, as a client would keep.
        session = std::make_unique<ConcurrentSession>(*run.in.graph,
                                                      SessionOptions(true));
      }
      const bool traced_rep = trace && rep > 0;
      EnableSpans(traced_rep);
      Converge(run, *session, trace && !traced_rep ? &untraced : &run.loop);
      CheckPromotedPrecise(run, *session);
      if (rep % 2 == 0) continue;
      ApplyBatch(run, *session, rng, &batch);
      if (NowNs() - w0 >= run.options.seconds * 1e9) break;
    }
  }
  run.peak_rss_mb = PeakRssMb();
  EnableSpans(trace);
  run.overhead = Overhead(run.loop, untraced);
  run.loop.Merge(std::move(untraced));
  CheckIndexSize(run);
}

/// mutate-xmark: on an index converged in set-up, cache on, one client
/// alternates a mutation batch through ApplyMutations with a pass over the
/// stream, in whole rounds until the window is used up. Each pass reads the
/// version the batch just published, after its cache invalidation; reads
/// that overlap a publish are left out (README "Known faults"). A single
/// convergence of XMark takes about a second, too short to time steadily,
/// so more follow the window.
void RunMutateXmark(Run& run) {
  run.in.Reorder(run.order_rng);
  ConcurrentSession session(*run.in.graph, SessionOptions(true));
  QueryLog setup_log;
  Converge(run, session, &setup_log);
  run.EndSetup();

  mrx::Rng rng(MutationSeed(run.options.seed));
  MeasuredWindow(run, [&](double seconds, QueryLog* log) {
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    mrx::mutate::MutationBatch batch;
    do {
      // The client is the only writer, so each applied batch makes the
      // next version.
      if (ApplyBatch(run, session, rng, &batch)) {
        run.batches.push_back(batch);
      }
      const uint64_t t0 = NowNs();
      for (uint32_t q : run.in.order) SessionQuery(session, run, q, log);
      log->query_ns += NowNs() - t0;
    } while (NowNs() < deadline);
  });
  ExtraConvergences(run);
}

// ---------------------------------------------------------------------------
// Traced runs: a layer replay that calls each module's public functions
// directly on the workload's graph and stream, one layer at a time, so
// every per-layer metric is measured on every workload.

void ReplayLayers(Run& run) {
  const Inputs& in = run.in;
  const DataGraph& g = *in.graph;
  auto& m = run.report.per_layer;
  mrx::DataEvaluator evaluator(g);

  uint64_t t0 = NowNs();
  std::unique_ptr<mrx::MStarIndex> index;
  {
    Span span("index.seed", ++run.request);
    index = std::make_unique<mrx::MStarIndex>(g);
  }
  m.push_back({"index.seed_ms", Ms(NowNs() - t0), "ms"});

  // Cold queries on A(0), and the data-graph evaluator alone.
  std::vector<double> cold_us, eval_us;
  uint64_t validated = 0;
  for (uint32_t q : in.distinct) {
    Span span("index.query_cold", ++run.request);
    t0 = NowNs();
    QueryResult r = index->QueryTopDown(in.queries[q], &evaluator);
    cold_us.push_back(Us(NowNs() - t0));
    validated += r.stats.data_nodes_validated;
  }
  for (uint32_t q : in.distinct) {
    Span span("query.evaluate", ++run.request);
    t0 = NowNs();
    std::vector<mrx::NodeId> answer = evaluator.Evaluate(in.queries[q]);
    eval_us.push_back(Us(NowNs() - t0));
  }
  m.push_back({"index.query_cold_p50_us", Percentile(cold_us, 0.5), "us"});
  m.push_back({"index.query_cold_p99_us", Percentile(cold_us, 0.99), "us"});
  m.push_back({"index.validated_per_query",
               static_cast<double>(validated) / in.distinct.size(), "count"});
  m.push_back({"query.evaluate_us", Median(eval_us), "us"});

  // REFINE* over the last convergence's promotion sequence, cut into as
  // many batches as that session published, with a Clone after each batch
  // as at a publish.
  const std::vector<PathExpression> fups = in.PromotedFups();
  const size_t batches =
      std::clamp<size_t>(run.publications, 1, std::max<size_t>(1, fups.size()));
  uint64_t refine_ns = 0;
  std::vector<double> clone_ms;
  for (size_t b = 0; b < batches; ++b) {
    const std::vector<PathExpression> chunk(
        fups.begin() + fups.size() * b / batches,
        fups.begin() + fups.size() * (b + 1) / batches);
    t0 = NowNs();
    {
      Span span("index.refine_batch", ++run.request);
      index->RefineBatch(chunk);
    }
    const uint64_t t1 = NowNs();
    refine_ns += t1 - t0;
    Span span("index.clone", ++run.request);
    const mrx::MStarIndex copy = index->Clone();
    clone_ms.push_back(Ms(NowNs() - t1));
  }
  m.push_back({"index.refine_ms", Ms(refine_ns), "ms"});
  m.push_back({"index.refine_fups", static_cast<double>(fups.size()),
               "count"});
  m.push_back({"index.splits",
               static_cast<double>(index->TotalRefinementStats().splits),
               "count"});
  m.push_back({"index.clone_ms", Median(clone_ms), "ms"});
  const auto serial_nodes = static_cast<int64_t>(index->PhysicalNodeCount());
  const auto serial_edges = static_cast<int64_t>(index->PhysicalEdgeCount());
  if (serial_nodes != run.converged.nodes ||
      serial_edges != run.converged.edges) {
    run.Fail("published index has " + std::to_string(run.converged.nodes) +
             " nodes / " + std::to_string(run.converged.edges) +
             " edges; serial refinement in promotion order has " +
             std::to_string(serial_nodes) + " / " +
             std::to_string(serial_edges));
  }

  // The converged index on the whole stream.
  std::vector<double> query_us;
  uint64_t visited = 0, answer_nodes = 0;
  for (const PathExpression& q : in.queries) {
    Span span("index.query", ++run.request);
    t0 = NowNs();
    QueryResult r = index->QueryTopDown(q, &evaluator);
    query_us.push_back(Us(NowNs() - t0));
    visited += r.stats.index_nodes_visited;
    answer_nodes += r.answer.size();
  }
  const double n = static_cast<double>(in.queries.size());
  m.push_back({"index.query_p50_us", Percentile(query_us, 0.5), "us"});
  m.push_back({"index.query_p99_us", Percentile(query_us, 0.99), "us"});
  m.push_back({"index.nodes_visited_per_query", visited / n, "count"});
  m.push_back({"index.answer_nodes_per_query", answer_nodes / n, "count"});

  // The answer cache on the stream's keys, filled with every answer.
  {
    mrx::server::ShardedAnswerCache cache(4096, 16);
    std::vector<std::string> keys;
    for (const PathExpression& q : in.queries) {
      keys.push_back(q.ToString(g.symbols()));
    }
    for (uint32_t q : in.distinct) {
      cache.Put(keys[q],
                mrx::server::ShardedAnswerCache::Wrap(
                    index->QueryTopDown(in.queries[q], &evaluator)),
                0);
    }
    std::vector<double> get_ns;
    for (const std::string& key : keys) {
      Span span("server.cache_get", ++run.request);
      t0 = NowNs();
      const mrx::server::CachedAnswerPtr hit = cache.Get(key);
      get_ns.push_back(static_cast<double>(NowNs() - t0));
    }
    m.push_back({"server.cache_get_ns", Median(get_ns), "ns"});
  }

  // Live updates: the maintainer alone on the run's first seeded batches,
  // then once the rebuild-and-replay that ApplyMutations performs after it.
  mrx::mutate::IncrementalMaintainer maintainer(g);
  mrx::Rng rng(MutationSeed(run.options.seed));
  std::vector<double> apply_ms;
  uint64_t cascade = 0;
  for (size_t b = 0; b < kReplayMutations; ++b) {
    const mrx::mutate::MutationBatch batch = mrx::mutate::GenerateRandomBatch(
        rng, maintainer.graph(), BatchOptions());
    Span span("mutate.apply", ++run.request);
    t0 = NowNs();
    auto receipt = maintainer.Apply(batch);
    apply_ms.push_back(Ms(NowNs() - t0));
    if (!receipt.ok()) {
      run.Fail("replayed mutation batch rejected: " +
               receipt.status().ToString());
      return;
    }
    cascade += receipt->dirty_nodes;
  }
  m.push_back({"mutate.apply_ms", Median(apply_ms), "ms"});
  m.push_back({"mutate.cascade_size",
               static_cast<double>(cascade) / kReplayMutations, "count"});
  Span span("index.rebuild", ++run.request);
  t0 = NowNs();
  mrx::MStarIndex rebuilt(maintainer.graph());
  rebuilt.RefineBatch(fups);
  m.push_back({"index.rebuild_ms", Ms(NowNs() - t0), "ms"});
}

/// Queue hand-off probe: the same queries through QueryServer::Execute and
/// straight through the server's session, alternately, on a fresh (A(0))
/// one-worker server. Nothing is promoted, so both paths evaluate on the
/// same index while the refiner stays idle.
void ProbeServer(Run& run) {
  mrx::server::QueryServerOptions so;
  so.num_workers = 1;
  so.session = SessionOptions(/*cache=*/false);
  so.session.refine_after = std::numeric_limits<size_t>::max();
  mrx::server::QueryServer server(*run.in.graph, so);
  std::vector<double> execute_us, session_us;
  const size_t n = std::min(kProbeQueries, run.in.distinct.size());
  for (size_t j = 0; j < n; ++j) {
    const PathExpression& q = run.in.queries[run.in.distinct[j]];
    {
      Span span("server.execute", ++run.request);
      const uint64_t t0 = NowNs();
      auto r = server.Execute(q);
      execute_us.push_back(Us(NowNs() - t0));
    }
    {
      Span span("server.session_query", ++run.request);
      const uint64_t t0 = NowNs();
      server.session().Query(q);
      session_us.push_back(Us(NowNs() - t0));
    }
  }
  auto& m = run.report.per_layer;
  m.push_back({"server.session_query_us", Median(session_us), "us"});
  m.push_back({"server.execute_us", Median(execute_us), "us"});
}

void AddPerLayer(Run& run) {
  auto& m = run.report.per_layer;
  const std::vector<SpanRecord> spans = CollectSpans();
  auto total_ms = [&](std::string_view name) {
    uint64_t ns = 0;
    for (const SpanRecord& s : spans) {
      if (s.name == name) ns += s.end_ns - s.start_ns;
    }
    return Ms(ns);
  };
  const QueryLog& loop = run.loop;
  m.push_back({"storage.load_ms", total_ms("storage.load"), "ms"});
  m.push_back({"workload.enumerate_ms", total_ms("workload.enumerate"), "ms"});
  m.push_back({"server.drain_ms", Median(run.drain_ms), "ms"});
  m.push_back({"server.publications", static_cast<double>(run.publications),
               "count"});
  m.push_back({"server.cache_hits", static_cast<double>(loop.hits), "count"});
  m.push_back({"server.cache_misses", static_cast<double>(loop.misses()),
               "count"});
  m.push_back({"server.miss_p99_us", Percentile(loop.miss_us, 0.99), "us"});
  m.push_back({"index.precise_ratio",
               loop.misses() > 0 ? static_cast<double>(loop.precise_misses) /
                                       loop.misses()
                                 : 1.0,
               "ratio"});
  m.push_back({"trace.overhead_ratio", run.overhead, "ratio"});
  const uint64_t wall = NowNs() - run.options.start_ns;
  const uint64_t busiest = MaxThreadSelfNs(spans);
  if (busiest > wall) {
    run.Fail("span self times of one thread sum to " +
             std::to_string(busiest) + " ns, more than the run's " +
             std::to_string(wall) + " ns");
  }
  if (!run.options.spans_path.empty() &&
      !WriteSpansJsonl(spans, run.options.spans_path, run.options.start_ns)) {
    run.Fail("cannot write " + run.options.spans_path);
  }
}

/// Checks every answer the window saw against the walk on the version that
/// produced it. Version 0 is the loaded graph; later versions are rebuilt
/// by replaying the window's batches through a fresh maintainer, so only
/// one of them is held at a time. With --fault, also hands the checker one
/// altered answer (see README "Fault self-test").
void CheckAnswers(Run& run) {
  const AnswerSet& answers = run.loop.answers;
  const auto by_version = answers.QueriesByVersion();
  AnswerChecker checker(run.in.queries);
  auto walk = [&](uint64_t version, const DataGraph& graph) {
    const auto it = by_version.find(static_cast<uint32_t>(version));
    if (it != by_version.end()) {
      checker.WalkVersion(it->first, graph, it->second);
    }
  };
  walk(0, *run.in.graph);
  if (!run.batches.empty()) {
    mrx::mutate::IncrementalMaintainer maintainer(*run.in.graph);
    for (const mrx::mutate::MutationBatch& batch : run.batches) {
      const auto receipt = maintainer.Apply(batch);
      if (!receipt.ok()) {
        run.Fail("replayed batch rejected: " + receipt.status().ToString());
        break;
      }
      walk(receipt->version, maintainer.graph());
    }
  }
  std::string problem;
  if (const uint64_t wrong = checker.Check(answers, &problem); wrong > 0) {
    run.Fail(std::to_string(wrong) + " wrong answers; first: " + problem);
  }
  if (run.options.fault && !answers.entries().empty()) {
    ObservedAnswer answer = answers.entries().front().first;
    answer.digest.size += 1;
    AnswerSet altered;
    altered.Add(answer, 1);
    problem.clear();
    if (checker.Check(altered, &problem) > 0) {
      run.Fail("fault self-test (altered answer): " + problem);
    }
  }
}

void AddEndToEnd(Run& run) {
  const QueryLog& log = run.loop;
  auto& m = run.report.end_to_end;
  m.push_back({"setup_s", Sec(run.setup_ns), "s"});
  m.push_back({"converge_s", Median(run.converge_s), "s"});
  m.push_back({"queries_per_s",
               log.query_ns > 0 ? log.queries / Sec(log.query_ns) : 0,
               "1/s"});
  m.push_back({"miss_p50_us", Percentile(log.miss_us, 0.5), "us"});
  m.push_back({"mutation_p50_ms", Median(run.mutation_ms), "ms"});
  m.push_back({"index_nodes", Median(run.index_nodes), "count"});
  m.push_back({"index_edges", Median(run.index_edges), "count"});
  m.push_back({"logical_cost_per_query",
               log.misses() > 0
                   ? static_cast<double>(log.logical_cost) / log.misses()
                   : 0,
               "count"});
  m.push_back({"peak_rss_mb", run.peak_rss_mb, "MB"});
}

}  // namespace

bool GenerateData(const std::string& dir, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  for (const Dataset& d : {kNasa, kXMark}) {
    const std::string path = (std::filesystem::path(dir) / d.file).string();
    if (std::filesystem::exists(path)) continue;
    // The scales match `mrx generate <dataset> --nodes N`.
    auto graph =
        std::string(d.generator) == "nasa"
            ? mrx::harness::BuildNasaGraphStreamed(
                  static_cast<double>(d.nodes) / 90000.0, d.generator_seed)
            : mrx::harness::BuildXMarkGraphStreamed(
                  mrx::harness::XMarkScaleForNodes(d.nodes), d.generator_seed);
    if (!graph.ok()) {
      *error = graph.status().ToString();
      return false;
    }
    const std::string tmp = path + ".tmp";
    const mrx::Status s = mrx::storage::SaveDataGraphToFile(*graph, tmp);
    if (!s.ok()) {
      *error = s.ToString();
      return false;
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      *error = ec.message();
      return false;
    }
  }
  return true;
}

RunReport RunWorkload(const RunOptions& options) {
  Run run(options);
  EnableSpans(options.trace);
  void (*workload)(Run&) = nullptr;
  const Dataset* dataset = &kXMark;
  if (options.workload == "adapt-nasa") {
    workload = RunAdaptNasa;
    dataset = &kNasa;
  } else if (options.workload == "mutate-xmark") {
    workload = RunMutateXmark;
  } else {
    run.Fail("unknown workload " + options.workload);
    return run.report;
  }
  std::string error;
  if (!LoadInputs(*dataset, options, &run.in, &error)) {
    run.Fail(error);
    return run.report;
  }
  workload(run);
  EnableSpans(options.trace);
  run.report.attempted += run.loop.queries;
  CheckAnswers(run);
  if (options.trace) {
    ProbeServer(run);
    ReplayLayers(run);
    AddPerLayer(run);
  }
  AddEndToEnd(run);
  return run.report;
}

}  // namespace perfbench
