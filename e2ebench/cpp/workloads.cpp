#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_set>

#include "corpus/synthetic_corpus.hpp"
#include "eval/metrics.hpp"
#include "ges/async_search.hpp"
#include "ges/scenario.hpp"
#include "ges/system.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "p2p/invariants.hpp"
#include "p2p/wire.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace e2e {
namespace {

using namespace ges;

// --- Scale and load ---------------------------------------------------------

/// Episodes per run. Each sets the deployment up afresh and runs the same
/// measured phase on it; the deployments, inputs and simulated outcomes
/// are identical (checked), so each host-time item — a query, an arrival
/// step, a round — is reported as the fastest of its kEpisodes identical
/// runs. Other tenants on a shared host slow the benchmark in phases of
/// seconds to minutes; a phase that covers one episode then moves
/// nothing. setup_s and the set-up layer timings are medians over the
/// episodes' set-ups.
constexpr size_t kEpisodes = 3;
/// Warm-up adaptation rounds of the set-up (the GesBuildConfig default).
const size_t kWarmupRounds = core::GesBuildConfig{}.adaptation_rounds;
/// Node vectors are truncated to this many terms, as in the
/// cost_model_maintenance and latency_response_time benches.
constexpr size_t kNodeVectorTerms = 1000;
/// Probe budget: this share of the alive nodes.
constexpr double kBudgetShare = 0.10;

/// Measured work per second of --seconds, summed over the episodes (each
/// episode runs 1/kEpisodes of it), calibrated so a search_sync run
/// measures about --seconds of host time on a 4-core x86-64 host
/// (README.md, "Run length"). The work is fixed per (workload, seed,
/// --seconds), so the simulated metrics and the behaviour checksum repeat
/// exactly.
constexpr size_t kSyncQueriesPerSecond = 5500;
constexpr size_t kAsyncRequestsPerSecond = 3500;
constexpr size_t kChurnRoundsPerSecond = 20;

/// search_async_zipf: Poisson arrivals per simulated second, and the
/// Zipf(1.0) population the requests draw from.
constexpr double kArrivalsPerSimSecond = 100.0;
constexpr size_t kZipfPopulation = 2000;
constexpr double kZipfAlpha = 1.0;
/// churn_maintenance: synchronous probe queries after each round.
constexpr size_t kProbesPerRound = 48;
/// Async replays that give search_sync and churn_maintenance their
/// simulated response times: enough requests that a p99 has 40 beyond it.
constexpr size_t kReplayRequests = 4000;
/// The deployment, its churn and fault schedules, and the Zipf workloads'
/// query population are fixed; the workload seed drives the request
/// stream (which queries, Zipf draws, arrivals, initiators). Seed-driven
/// churn or populations would make the simulated metrics swing between
/// seeds: under Zipf(1.0) the ten head queries take a third of the
/// requests, and each churn schedule leaves a different overlay.
constexpr uint64_t kScenarioSeed = 1;
constexpr uint64_t kChurnSeed = 7;
constexpr uint64_t kFaultSeed = 11;
constexpr uint64_t kPopulationSeed = 0x5eed'0001;
/// Churn rejoins bootstrap links without consulting the degree policy;
/// the invariant sweep allows this many links past the policy.
constexpr size_t kChurnDegreeSlack = 6;
/// Top-level spans must cover at least this share of each traced phase.
constexpr double kSpanCoverageMin = 0.90;

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSearchSync: return "search_sync";
    case Workload::kSearchAsyncZipf: return "search_async_zipf";
    case Workload::kChurnMaintenance: return "churn_maintenance";
  }
  return "?";
}

// --- Process measurements ---------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  size_t pages = 0;
  size_t resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double seconds_between(int64_t a_ns, int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

// --- Seeded query generator -------------------------------------------------

struct GenQuery {
  ir::SparseVector vector;
  uint32_t judged = 0;  // index into QueryGenerator::judgment()
  uint32_t terms = 0;
};

/// Derives queries from the corpus: 3-4 terms drawn from the ten
/// highest-weighted terms of a random document of a judged topic, judged
/// by that topic's relevance list. The population size, and with it the
/// share of repeated work, is the benchmark's choice rather than the
/// corpus's 30 queries.
class QueryGenerator {
 public:
  explicit QueryGenerator(const corpus::Corpus& corpus) : corpus_(&corpus) {
    for (const corpus::Query& q : corpus.queries) {
      if (q.relevant.empty()) continue;
      judged_.push_back(&q);
      judgments_.emplace_back(q.relevant);
    }
  }

  const eval::Judgment& judgment(uint32_t j) const { return judgments_[j]; }

  /// `n` queries with pairwise distinct term sets.
  std::vector<GenQuery> distinct(size_t n, util::Rng& rng) const {
    std::vector<GenQuery> out;
    out.reserve(n);
    std::unordered_set<uint64_t> seen;
    while (out.size() < n) {
      GenQuery q = draw(rng);
      uint64_t key = kFnvOffset;
      for (const ir::TermId t : q.vector.terms()) key = fnv_fold(key, uint64_t{t});
      if (seen.insert(key).second) out.push_back(std::move(q));
    }
    return out;
  }

 private:
  GenQuery draw(util::Rng& rng) const {
    const auto j = static_cast<uint32_t>(rng.index(judged_.size()));
    const auto& relevant = judged_[j]->relevant;
    ir::SparseVector top = corpus_->docs[relevant[rng.index(relevant.size())]].vector;
    top.truncate_top(10);
    const auto terms = top.terms();
    const size_t k = std::min<size_t>(terms.size(), 3 + rng.index(2));
    std::vector<ir::TermWeight> pairs;
    for (const size_t pick : rng.sample_without_replacement(terms.size(), k)) {
      pairs.push_back({terms[pick], 1.0f});
    }
    GenQuery q;
    q.vector = ir::SparseVector::from_pairs(std::move(pairs));
    q.vector.normalize();
    q.judged = j;
    q.terms = static_cast<uint32_t>(q.vector.size());
    return q;
  }

  const corpus::Corpus* corpus_;
  std::vector<const corpus::Query*> judged_;
  std::vector<eval::Judgment> judgments_;
};

/// One request of a workload's stream.
struct Request {
  uint32_t query = 0;
  p2p::NodeId initiator = 0;
  uint64_t seed = 0;
  double at = 0.0;  // arrival offset, simulated seconds (open loop only)
};

/// Input properties a claim about repeated work must cite.
struct StreamProperties {
  size_t requests = 0;
  size_t distinct = 0;
  double repeat_share = 0.0;  // requests whose query appeared earlier
  double mean_terms = 0.0;
};

StreamProperties describe(const std::vector<uint32_t>& stream,
                          const std::vector<GenQuery>& queries) {
  StreamProperties p;
  p.requests = stream.size();
  std::vector<uint8_t> seen(queries.size(), 0);
  size_t repeats = 0;
  double terms = 0.0;
  for (const uint32_t q : stream) {
    if (seen[q] != 0) ++repeats;
    seen[q] = 1;
    terms += queries[q].terms;
  }
  p.distinct = static_cast<size_t>(std::count(seen.begin(), seen.end(), uint8_t{1}));
  p.repeat_share = ratio(static_cast<double>(repeats), static_cast<double>(p.requests));
  p.mean_terms = ratio(terms, static_cast<double>(p.requests));
  return p;
}

/// Zipf(alpha) draws over a population (rank r -> query r - 1).
std::vector<uint32_t> zipf_stream(size_t n, size_t population, util::Rng& rng) {
  const util::ZipfSampler zipf(population, kZipfAlpha);
  std::vector<uint32_t> out(n);
  for (auto& q : out) q = static_cast<uint32_t>(zipf.sample(rng) - 1);
  return out;
}

// --- Per-query accounting ---------------------------------------------------

struct QueryTally {
  Outcomes outcomes;
  std::vector<double> host_us;  // per search call / per async arrival step
  double recall_sum = 0.0;
  uint64_t probes = 0;    // local-index evaluations
  uint64_t answered = 0;  // nodes that answered; a cache hit counts as one
  uint64_t walk_steps = 0;
  uint64_t flood_messages = 0;
  uint64_t targets = 0;
  uint64_t rel_evals = 0;
  uint64_t rel_memo_hits = 0;
  uint64_t walk_bytes = 0;
  uint64_t flood_bytes = 0;
  size_t cache_hit_queries = 0;
  uint64_t checksum = kFnvOffset;
  /// Traced run: (query, probe order) of every trace, for the
  /// LocalIndex::evaluate replay.
  std::vector<std::pair<uint32_t, std::vector<p2p::NodeId>>> probe_orders;
};

uint64_t fold_trace(uint64_t h, const p2p::SearchTrace& trace) {
  for (const p2p::NodeId n : trace.probe_order) h = fnv_fold(h, uint64_t{n});
  for (const auto& d : trace.retrieved) {
    h = fnv_fold(h, uint64_t{d.doc});
    h = fnv_fold(h, d.score);
    h = fnv_fold(h, uint64_t{d.probe_index});
  }
  h = fnv_fold(h, uint64_t{trace.walk_steps});
  h = fnv_fold(h, uint64_t{trace.flood_messages});
  h = fnv_fold(h, uint64_t{trace.target_count});
  h = fnv_fold(h, trace.cache_hits);
  return fnv_fold(h, trace.bytes_sent);
}

/// Books one finished trace and applies the per-query correctness gate.
void book(QueryTally& t, const p2p::SearchTrace& trace, uint32_t query_index,
          const GenQuery& q, const QueryGenerator& gen, size_t budget, bool keep_order,
          std::vector<std::string>& violations) {
  const bool cache_hit = trace.cache_hits > 0;
  t.outcomes.add(Outcomes::is_failure(trace.probes(), budget, cache_hit));
  const double recall = eval::recall(trace, gen.judgment(q.judged));
  if (!(recall >= 0.0 && recall <= 1.0)) {
    violations.push_back("recall " + std::to_string(recall) + " outside [0, 1]");
  }
  if (trace.probes() > budget) {
    violations.push_back("query probed " + std::to_string(trace.probes()) +
                         " nodes, budget " + std::to_string(budget));
  }
  const uint64_t walk_bytes =
      trace.walk_steps * p2p::wire::walk_query_frame_size(q.vector.size());
  const uint64_t flood_bytes =
      trace.flood_messages * p2p::wire::flood_forward_frame_size(q.vector.size());
  if (walk_bytes + flood_bytes != trace.bytes_sent) {
    violations.push_back("trace bytes " + std::to_string(trace.bytes_sent) +
                         " != walk + flood frames " +
                         std::to_string(walk_bytes + flood_bytes));
  }
  t.recall_sum += recall;
  t.probes += trace.probes();
  t.answered += trace.probes() + (cache_hit ? 1 : 0);
  t.walk_steps += trace.walk_steps;
  t.flood_messages += trace.flood_messages;
  t.targets += trace.target_count;
  t.rel_evals += trace.rel_evals;
  t.rel_memo_hits += trace.rel_memo_hits;
  t.walk_bytes += walk_bytes;
  t.flood_bytes += flood_bytes;
  if (cache_hit) ++t.cache_hit_queries;
  t.checksum = fold_trace(t.checksum, trace);
  if (keep_order) t.probe_orders.emplace_back(query_index, trace.probe_order);
}

/// Simulated response times of async results; failed queries count as
/// slower than every completed one.
struct ResponseTally {
  std::vector<double> first_hit;
  std::vector<double> response;
  size_t failed = 0;
  size_t no_hit = 0;  // completed without retrieving anything
};

// --- Adaptation rounds ------------------------------------------------------

struct RoundSample {
  double wall_s = 0.0;       // queue interval plus run_round
  double run_until_s = 0.0;  // queue interval only
  double adapt_s = 0.0;      // run_round only
  double adapt_cpu_s = 0.0;
  size_t alive = 0;          // nodes alive when the round ran
  uint64_t heartbeat_bytes = 0;
  uint64_t rel_hits = 0;
  uint64_t rel_misses = 0;
  core::AdaptationRoundStats stats;

  uint64_t maintenance_bytes() const {
    return stats.walk_bytes + stats.handshake_bytes + stats.gossip_bytes + heartbeat_bytes;
  }
};

/// One round exactly as ScenarioRunner::run drives it: advance the queue
/// by one round interval, then one adaptation round.
RoundSample advance_round(core::ScenarioRunner& runner, SpanLog& spans) {
  RoundSample s;
  p2p::EventQueue& queue = runner.queue();
  const auto& rel = runner.network().rel_cache();
  const uint64_t hb0 = runner.heartbeats().heartbeat_bytes();
  const uint64_t hits0 = rel.hits();
  const uint64_t misses0 = rel.misses();
  const int64_t t0 = now_ns();
  {
    Scoped span(spans, "p2p.event_sim.run_until");
    queue.run_until(queue.now() + runner.params().round_interval);
  }
  const int64_t t1 = now_ns();
  s.alive = runner.network().alive_count();
  const double cpu0 = cpu_seconds();
  {
    Scoped span(spans, "ges.topology_adaptation.run_round");
    s.stats = runner.adaptation().run_round();
  }
  const int64_t t2 = now_ns();
  s.adapt_cpu_s = cpu_seconds() - cpu0;
  s.run_until_s = seconds_between(t0, t1);
  s.adapt_s = seconds_between(t1, t2);
  s.wall_s = seconds_between(t0, t2);
  s.heartbeat_bytes = runner.heartbeats().heartbeat_bytes() - hb0;
  s.rel_hits = rel.hits() - hits0;
  s.rel_misses = rel.misses() - misses0;
  return s;
}

// --- Set-up -----------------------------------------------------------------

struct Deployment {
  std::unique_ptr<corpus::Corpus> corpus;  // the network keeps a reference
  std::unique_ptr<core::ScenarioRunner> runner;
};

struct SetupSample {
  double total_s = 0.0;
  double generate_s = 0.0;
  double build_s = 0.0;
  double bootstrap_s = 0.0;
  double warmup_s = 0.0;
  double corpus_rss_mb = 0.0;
  double network_rss_mb = 0.0;
  double warmup_rss_mb = 0.0;
  std::vector<RoundSample> rounds;
};

/// Counter readings the measured phase is reported as deltas of.
struct Counters {
  size_t events = 0;
  size_t heartbeats_sent = 0;
  size_t heartbeats_lost = 0;
  uint64_t heartbeat_bytes = 0;
  size_t departures = 0;
  size_t arrivals = 0;
  uint64_t dropped = 0;
  uint64_t blocked = 0;
  uint64_t handshake_deaths = 0;
  core::ResultCacheStats cache;
  double sim_now = 0.0;
};

Counters read_counters(core::ScenarioRunner& runner) {
  Counters c;
  c.events = runner.queue().processed();
  c.heartbeats_sent = runner.heartbeats().heartbeats_sent();
  c.heartbeats_lost = runner.heartbeats().heartbeats_lost();
  c.heartbeat_bytes = runner.heartbeats().heartbeat_bytes();
  if (runner.churn() != nullptr) {
    c.departures = runner.churn()->departures();
    c.arrivals = runner.churn()->arrivals();
  }
  const auto& f = runner.faults().counters();
  c.dropped = f.messages_dropped.load();
  c.blocked = f.messages_blocked.load();
  c.handshake_deaths = f.handshake_deaths.load();
  c.cache = runner.result_cache().stats();
  c.sim_now = runner.queue().now();
  return c;
}

uint64_t cache_bytes(const core::ResultCacheStats& s) {
  return s.probe_bytes + s.result_bytes + s.store_bytes;
}

/// One set-up plus one run of the measured phase on it.
struct Episode {
  SetupSample setup;
  QueryTally tally;
  ResponseTally responses;          // search_async_zipf
  std::vector<uint32_t> fired;      // submit callbacks per request
  std::vector<RoundSample> rounds;  // churn_maintenance's measured rounds
  Counters before;
  Counters after;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double run_until_s = 0.0;  // host time inside run_until during the phase
  size_t max_in_flight = 0;
  uint64_t checksum = 0;     // measured traces and the final link set
};

/// FNV-1a over the final typed link set and liveness.
uint64_t fold_links(uint64_t h, const p2p::Network& net) {
  for (p2p::NodeId n = 0; n < net.size(); ++n) {
    h = fnv_fold(h, uint64_t{net.alive(n)});
    for (const auto type : {p2p::LinkType::kRandom, p2p::LinkType::kSemantic}) {
      std::vector<p2p::NodeId> nb = net.neighbors(n, type);
      std::sort(nb.begin(), nb.end());
      h = fnv_fold(h, uint64_t{nb.size()});
      for (const p2p::NodeId m : nb) h = fnv_fold(h, uint64_t{m});
    }
  }
  return h;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

// --- The benchmark ----------------------------------------------------------

class Bench {
 public:
  Bench(const RunConfig& config, Report& report)
      : cfg_(config), rep_(report), spans_(config.traced) {}

  void run() {
    const auto [prepare, measure] = steps();
    episodes_.reserve(kEpisodes);
    for (size_t e = 0; e < kEpisodes; ++e) {
      // Tear the previous deployment down first, so no two coexist.
      dep_.runner.reset();
      dep_.corpus.reset();
      Episode& ep = episodes_.emplace_back();
      ep.setup = set_up();
      core::ScenarioRunner& runner = *dep_.runner;
      gen_ = std::make_unique<QueryGenerator>(*dep_.corpus);
      if (e == 0) {
        budget_ = std::max<size_t>(1, static_cast<size_t>(
                                          kBudgetShare *
                                          static_cast<double>(runner.network().alive_count())));
        (this->*prepare)();
      }
      if (cfg_.traced) obs::flight().reset();
      keep_orders_ = cfg_.traced && e == 0;
      ep.before = read_counters(runner);
      const int32_t phase = spans_.begin("measure");
      const double cpu0 = cpu_seconds();
      const int64_t t0 = now_ns();
      (this->*measure)(ep);
      const int64_t t1 = now_ns();
      ep.cpu_s = cpu_seconds() - cpu0;
      spans_.end(phase);
      ep.wall_s = seconds_between(t0, t1);
      ep.after = read_counters(runner);
      check_phase(phase, "measure");
      gate(ep);
      ep.checksum = fold_links(ep.tally.checksum, runner.network());
      if (ep.checksum != episodes_.front().checksum) {
        rep_.violations.push_back("episode " + std::to_string(e) +
                                  " behaved differently from episode 0 on identical inputs");
      }
    }
    const core::ScenarioParams& p = dep_.runner->params();
    rep_.lines.push_back(
        "deployment: " + std::to_string(dep_.corpus->num_nodes()) + " nodes, " +
        std::to_string(dep_.corpus->num_docs()) + " docs, " +
        std::to_string(dep_.corpus->queries.size()) + " judged queries, " +
        std::to_string(kWarmupRounds) + " warm-up rounds, " +
        std::to_string(util::global_pool().size()) + " pool workers, " +
        std::to_string(kEpisodes) + " episodes" +
        (p.churn_enabled ? ", churn on, faults uniform(0.01)" : ""));
    if (cfg_.workload == Workload::kSearchAsyncZipf) responses_ = episodes_.front().responses;
    replay_responses();
    if (cfg_.traced) replay_evaluate();
    rep_.checksum = fold_response_checksum(episodes_.front().checksum);
    rep_.measured_wall_s = best_of(&Episode::wall_s);
    report();
    if (cfg_.traced && !cfg_.spans_out.empty()) write_spans();
  }

 private:
  struct Steps {
    void (Bench::*prepare)();          // builds the request stream; not measured
    void (Bench::*measure)(Episode&);  // the measured phase
  };
  Steps steps() const {
    switch (cfg_.workload) {
      case Workload::kSearchSync: return {&Bench::prepare_sync, &Bench::measure_sync};
      case Workload::kSearchAsyncZipf: return {&Bench::prepare_async, &Bench::measure_async};
      case Workload::kChurnMaintenance: return {&Bench::prepare_churn, &Bench::measure_churn};
    }
    return {&Bench::prepare_sync, &Bench::measure_sync};
  }

  // --- set-up ---------------------------------------------------------------

  core::ScenarioParams scenario_params() const {
    core::ScenarioParams p;
    p.net.node_vector_size = kNodeVectorTerms;
    p.seed = kScenarioSeed;
    if (cfg_.workload == Workload::kChurnMaintenance) {
      // The "paper-like" churn level of cost_model_maintenance.
      p.churn_enabled = true;
      p.churn.mean_session = 180.0;
      p.churn.mean_downtime = 90.0;
      p.churn.seed = kChurnSeed;
      p.faults = p2p::FaultPlan::uniform(0.01, kFaultSeed);
    }
    p.flight_recorder = cfg_.traced;
    return p;
  }

  SetupSample set_up() {
    SetupSample s;
    const int32_t phase = spans_.begin("setup");
    const double rss0 = current_rss_mb();
    const int64_t t0 = now_ns();
    {
      Scoped span(spans_, "corpus.generate");
      dep_.corpus = std::make_unique<corpus::Corpus>(corpus::generate_synthetic_corpus(
          corpus::SyntheticCorpusParams::for_scale(util::Scale::kMedium)));
    }
    const int64_t t1 = now_ns();
    const double rss1 = current_rss_mb();
    {
      Scoped span(spans_, "p2p.network.build");
      dep_.runner = std::make_unique<core::ScenarioRunner>(*dep_.corpus, scenario_params());
    }
    const int64_t t2 = now_ns();
    {
      Scoped span(spans_, "p2p.network.bootstrap");
      dep_.runner->start();
    }
    const int64_t t3 = now_ns();
    const double rss3 = current_rss_mb();
    for (size_t r = 0; r < kWarmupRounds; ++r) {
      s.rounds.push_back(advance_round(*dep_.runner, spans_));
    }
    const int64_t t4 = now_ns();
    spans_.end(phase);
    s.generate_s = seconds_between(t0, t1);
    s.build_s = seconds_between(t1, t2);
    s.bootstrap_s = seconds_between(t2, t3);
    s.warmup_s = seconds_between(t3, t4);
    s.total_s = seconds_between(t0, t4);
    s.corpus_rss_mb = rss1 - rss0;
    s.network_rss_mb = rss3 - rss1;
    s.warmup_rss_mb = current_rss_mb() - rss3;
    check_phase(phase, "setup");
    return s;
  }

  double median_setup(double SetupSample::*field) const {
    std::vector<double> v;
    for (const Episode& ep : episodes_) v.push_back(ep.setup.*field);
    return median(v);
  }

  // --- search_sync ------------------------------------------------------------

  void prepare_sync() {
    const size_t n = kSyncQueriesPerSecond * static_cast<size_t>(cfg_.seconds) / kEpisodes;
    util::Rng qrng(util::derive_seed(cfg_.seed, 100));
    queries_ = gen_->distinct(n, qrng);
    const auto alive = dep_.runner->network().alive_nodes();
    util::Rng irng(util::derive_seed(cfg_.seed, 101));
    for (uint32_t i = 0; i < n; ++i) {
      stream_.push_back(i);
      requests_.push_back({i, alive[irng.index(alive.size())],
                           util::derive_seed(cfg_.seed, 1'000'000 + i), 0.0});
    }
    options_.probe_budget = budget_;
    options_.use_result_cache = false;
  }

  void measure_sync(Episode& ep) {
    const core::ScenarioRunner& runner = *dep_.runner;
    for (uint32_t i = 0; i < requests_.size(); ++i) {
      const Request& req = requests_[i];
      util::Rng rng(req.seed);
      const int64_t a = now_ns();
      p2p::SearchTrace trace;
      {
        Scoped span(spans_, "ges.search", i);
        trace = runner.search(queries_[req.query].vector, req.initiator, options_, rng);
      }
      ep.tally.host_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
      book(ep.tally, trace, req.query, queries_[req.query], *gen_, budget_, keep_orders_,
           rep_.violations);
    }
    rep_.attempted += requests_.size();
  }

  // --- search_async_zipf ------------------------------------------------------

  void prepare_async() {
    const size_t n = kAsyncRequestsPerSecond * static_cast<size_t>(cfg_.seconds) / kEpisodes;
    util::Rng qrng(kPopulationSeed);
    queries_ = gen_->distinct(kZipfPopulation, qrng);
    util::Rng zrng(util::derive_seed(cfg_.seed, 103));
    stream_ = zipf_stream(n, kZipfPopulation, zrng);
    const auto alive = dep_.runner->network().alive_nodes();
    util::Rng irng(util::derive_seed(cfg_.seed, 101));
    util::Rng arng(util::derive_seed(cfg_.seed, 102));
    double at = 0.0;
    for (uint32_t i = 0; i < n; ++i) {
      at += arng.exponential(kArrivalsPerSimSecond);
      requests_.push_back({stream_[i], alive[irng.index(alive.size())],
                           util::derive_seed(cfg_.seed, 1'000'000 + i), at});
    }
    options_.probe_budget = budget_;
    options_.use_result_cache = true;
    options_.strict_result_cache = cfg_.traced;
  }

  /// Open loop in simulated time: each request is submitted at its
  /// Poisson arrival, after the queue ran up to it. Host time per request
  /// is that queue slice plus the submit.
  void drive_async(p2p::EventQueue& queue, core::AsyncSearchEngine& engine,
                   const std::vector<Request>& requests, Episode* timed,
                   std::vector<core::AsyncQueryResult>& results, std::vector<uint32_t>& fired) {
    results.assign(requests.size(), {});
    fired.assign(requests.size(), 0);
    const double start = queue.now();
    for (uint32_t i = 0; i < requests.size(); ++i) {
      const Request& req = requests[i];
      const int64_t a = now_ns();
      {
        Scoped span(spans_, "p2p.event_sim.run_until", i);
        queue.run_until(start + req.at);
      }
      const int64_t b = now_ns();
      {
        Scoped span(spans_, "ges.async_search.submit", i);
        engine.submit(queries_[req.query].vector, req.initiator, req.seed,
                      [&results, &fired, i](const core::AsyncQueryResult& r) {
                        results[i] = r;
                        ++fired[i];
                      });
      }
      if (timed != nullptr) {
        timed->tally.host_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
        timed->run_until_s += seconds_between(a, b);
        timed->max_in_flight = std::max(timed->max_in_flight, engine.pending());
      }
    }
    // Drain: every query goes quiescent within its messages' latencies.
    for (size_t guard = 0; engine.pending() > 0 && guard < 10'000; ++guard) {
      const int64_t a = now_ns();
      {
        Scoped span(spans_, "p2p.event_sim.run_until");
        queue.run_until(queue.now() + 1.0);
      }
      if (timed != nullptr) timed->run_until_s += seconds_between(a, now_ns());
    }
  }

  void measure_async(Episode& ep) {
    core::ScenarioRunner& runner = *dep_.runner;
    core::AsyncSearchEngine engine(runner.network(), runner.queue(), options_,
                                   core::LatencyModel{}, &runner.faults(),
                                   &runner.result_cache());
    std::vector<core::AsyncQueryResult> results;
    drive_async(runner.queue(), engine, requests_, &ep, results, ep.fired);
    for (uint32_t i = 0; i < results.size(); ++i) {
      book(ep.tally, results[i].trace, requests_[i].query, queries_[requests_[i].query],
           *gen_, budget_, keep_orders_, rep_.violations);
      book_response(ep.responses, results[i], budget_);
    }
    rep_.attempted += requests_.size();
  }

  static void book_response(ResponseTally& t, const core::AsyncQueryResult& r, size_t budget) {
    const bool cache_hit = r.trace.cache_hits > 0;
    if (Outcomes::is_failure(r.trace.probes(), budget, cache_hit)) {
      ++t.failed;
      return;
    }
    t.response.push_back(r.completion_time());
    if (r.time_to_first_hit() >= 0.0) {
      t.first_hit.push_back(r.time_to_first_hit());
    } else {
      ++t.no_hit;
    }
  }

  // --- churn_maintenance ------------------------------------------------------

  void prepare_churn() {
    rounds_ = kChurnRoundsPerSecond * static_cast<size_t>(cfg_.seconds) / kEpisodes;
    util::Rng qrng(kPopulationSeed);
    queries_ = gen_->distinct(kZipfPopulation, qrng);
    util::Rng zrng(util::derive_seed(cfg_.seed, 103));
    stream_ = zipf_stream(rounds_ * kProbesPerRound, kZipfPopulation, zrng);
    options_.use_result_cache = true;
    options_.strict_result_cache = cfg_.traced;
  }

  void measure_churn(Episode& ep) {
    core::ScenarioRunner& runner = *dep_.runner;
    util::Rng irng(util::derive_seed(cfg_.seed, 101));
    const bool first = &ep == &episodes_.front();
    for (size_t r = 0; r < rounds_; ++r) {
      ep.rounds.push_back(advance_round(runner, spans_));
      ep.run_until_s += ep.rounds.back().run_until_s;
      // The probe batch: synchronous Zipf queries from alive initiators,
      // budgeted at the current alive count.
      const auto alive = runner.network().alive_nodes();
      const size_t budget = std::max<size_t>(
          1, static_cast<size_t>(kBudgetShare * static_cast<double>(alive.size())));
      options_.probe_budget = budget;
      for (size_t b = 0; b < kProbesPerRound; ++b) {
        const auto k = static_cast<uint32_t>(r * kProbesPerRound + b);
        Request req{stream_[k], alive[irng.index(alive.size())],
                    util::derive_seed(cfg_.seed, 1'000'000 + k), 0.0};
        util::Rng rng(req.seed);
        const int64_t a = now_ns();
        p2p::SearchTrace trace;
        {
          Scoped span(spans_, "ges.search", k);
          trace = runner.search(queries_[req.query].vector, req.initiator, options_, rng);
        }
        ep.tally.host_us.push_back(static_cast<double>(now_ns() - a) * 1e-3);
        book(ep.tally, trace, req.query, queries_[req.query], *gen_, budget, keep_orders_,
             rep_.violations);
        if (first) requests_.push_back(req);
      }
    }
    rep_.attempted += rounds_ * (1 + kProbesPerRound);
  }

  // --- after the measured phase -------------------------------------------------

  /// Correctness gate: overlay invariants, one callback per submit.
  void gate(const Episode& ep) {
    const core::ScenarioRunner& runner = *dep_.runner;
    const bool churn = cfg_.workload == Workload::kChurnMaintenance;
    const auto report = p2p::check_overlay_invariants(
        runner.network(), runner.invariant_options(churn ? kChurnDegreeSlack : 0));
    if (!report.ok()) rep_.violations.push_back("overlay invariants: " + report.to_string());
    for (uint32_t i = 0; i < ep.fired.size(); ++i) {
      if (ep.fired[i] != 1) {
        rep_.violations.push_back("submit " + std::to_string(i) + " callback fired " +
                                  std::to_string(ep.fired[i]) + " times");
        break;
      }
    }
  }

  /// search_sync and churn_maintenance have no simulated clock in their
  /// query path; their modelled response times come from replaying
  /// kReplayRequests of their requests through the async engine on a
  /// queue of their own (so the overlay stays as the phase left it), at
  /// the same arrival rate, with the result cache off and no fault plan.
  /// Message loss is priced by completed_share and recall of the measured
  /// queries; under uniform(0.01) about a fifth of the queries lose their
  /// walk, which would leave every percentile above p80 undefined once
  /// failed queries count as slower than every completed one. Not timed.
  void replay_responses() {
    if (cfg_.workload == Workload::kSearchAsyncZipf) return;
    Scoped phase(spans_, "replay.responses");
    core::ScenarioRunner& runner = *dep_.runner;
    core::SearchOptions options = options_;
    options.use_result_cache = false;
    const size_t budget = std::max<size_t>(
        1, static_cast<size_t>(kBudgetShare *
                               static_cast<double>(runner.network().alive_count())));
    options.probe_budget = budget;
    const auto alive = runner.network().alive_nodes();
    util::Rng irng(util::derive_seed(cfg_.seed, 201));
    util::Rng arng(util::derive_seed(cfg_.seed, 202));
    std::vector<Request> replay;
    double at = 0.0;
    for (uint32_t i = 0; i < kReplayRequests; ++i) {
      at += arng.exponential(kArrivalsPerSimSecond);
      const Request& src = requests_[i % requests_.size()];
      replay.push_back({src.query, alive[irng.index(alive.size())], src.seed, at});
    }
    p2p::EventQueue queue;
    core::AsyncSearchEngine engine(runner.network(), queue, options, core::LatencyModel{});
    std::vector<core::AsyncQueryResult> results;
    std::vector<uint32_t> fired;
    drive_async(queue, engine, replay, nullptr, results, fired);
    for (uint32_t i = 0; i < results.size(); ++i) {
      if (fired[i] != 1) {
        rep_.violations.push_back("replay submit callback fired " +
                                  std::to_string(fired[i]) + " times");
        break;
      }
      book_response(responses_, results[i], budget);
      replay_checksum_ = fold_trace(replay_checksum_, results[i].trace);
    }
  }

  uint64_t fold_response_checksum(uint64_t h) const {
    h = fnv_fold(h, replay_checksum_);
    for (const double v : responses_.response) h = fnv_fold(h, v);
    for (const double v : responses_.first_hit) h = fnv_fold(h, v);
    return h;
  }

  /// ir.local_index: re-run LocalIndex::evaluate over each measured
  /// trace's probe order, after the phase and outside its wall time.
  void replay_evaluate() {
    Scoped phase(spans_, "replay.evaluate");
    const p2p::Network& net = dep_.runner->network();
    const int64_t t0 = now_ns();
    size_t docs = 0;
    const QueryTally& tally = episodes_.front().tally;
    for (const auto& [query, order] : tally.probe_orders) {
      for (const p2p::NodeId n : order) {
        docs += net.index(n).evaluate(queries_[query].vector, options_.doc_rel_threshold).size();
      }
    }
    evaluate_s_ = seconds_between(t0, now_ns());
    rep_.lines.push_back("evaluate replay: " + std::to_string(tally.probes) + " probes, " +
                         std::to_string(docs) + " documents scored");
  }

  /// Span coverage: a traced phase's top-level spans must cover its wall
  /// time to within the stated slack.
  void check_phase(int32_t phase, const char* name) {
    if (!spans_.on()) return;
    const double coverage = spans_.child_coverage(phase);
    coverage_.emplace_back(name, coverage);
    if (coverage < kSpanCoverageMin) {
      rep_.violations.push_back(std::string("spans cover ") + fmt("%.4f", coverage) +
                                " of phase " + name + ", below " +
                                fmt("%.2f", kSpanCoverageMin));
    }
  }

  void write_spans() {
    std::ofstream os(cfg_.spans_out);
    if (!os.good()) {
      rep_.violations.push_back("cannot write spans to " + cfg_.spans_out);
      return;
    }
    spans_.write_json(os);
  }

  // --- reporting --------------------------------------------------------------

  /// An episode's adaptation rounds: the measured rounds of
  /// churn_maintenance; the search workloads run none in their measured
  /// phase and report their set-up's warm-up rounds.
  const std::vector<RoundSample>& rounds_of(const Episode& ep) const {
    return cfg_.workload == Workload::kChurnMaintenance ? ep.rounds : ep.setup.rounds;
  }

  /// Per round, the least of `field` over the episodes' identical rounds.
  std::vector<double> best_rounds(double RoundSample::*field) const {
    std::vector<std::vector<double>> runs;
    for (const Episode& ep : episodes_) {
      runs.emplace_back();
      for (const RoundSample& r : rounds_of(ep)) runs.back().push_back(r.*field);
    }
    return elementwise_min(runs);
  }

  /// Per query call or arrival step, the fastest of the episodes' runs.
  std::vector<double> best_query_us() const {
    std::vector<std::vector<double>> runs;
    for (const Episode& ep : episodes_) runs.push_back(ep.tally.host_us);
    return elementwise_min(runs);
  }

  /// rounds_per_s over the workload's rounds (queue interval plus
  /// run_round), each round timed as the fastest of its episodes.
  double rounds_per_s() const {
    double wall = 0.0;
    const std::vector<double> best = best_rounds(&RoundSample::wall_s);
    for (const double w : best) wall += w;
    return ratio(static_cast<double>(best.size()), wall);
  }

  double best_of(double Episode::*field) const {
    double best = episodes_.front().*field;
    for (const Episode& ep : episodes_) best = std::min(best, ep.*field);
    return best;
  }

  void add(const std::string& name, double value, const char* unit) {
    rep_.metrics.push_back({name, value, unit});
  }

  /// Node-rounds of the measured phase's simulated time: rounds for
  /// churn_maintenance, elapsed simulated time over the round interval
  /// for search_async_zipf, none for search_sync.
  double measured_node_rounds() const {
    const Episode& first = episodes_.front();
    if (cfg_.workload == Workload::kChurnMaintenance) {
      double nr = 0.0;
      for (const auto& r : first.rounds) nr += static_cast<double>(r.alive);
      return nr;
    }
    const core::ScenarioRunner& runner = *dep_.runner;
    return static_cast<double>(runner.network().alive_count()) *
           (first.after.sim_now - first.before.sim_now) / runner.params().round_interval;
  }

  void report() {
    const core::ScenarioRunner& runner = *dep_.runner;
    const Episode& first = episodes_.front();
    const QueryTally& tally = first.tally;
    const Counters& before = first.before;
    const Counters& after = first.after;
    const std::vector<double> best_us = best_query_us();
    double best_s = 0.0;
    for (const double us : best_us) best_s += us * 1e-6;
    const StreamProperties props = describe(stream_, queries_);
    const double alive_share = static_cast<double>(runner.network().alive_count()) /
                               static_cast<double>(runner.network().size());
    const double queries = static_cast<double>(tally.outcomes.attempted);
    const uint64_t cache_b = cache_bytes(after.cache) - cache_bytes(before.cache);

    const Quantile us50 = quantile(best_us, 0, 50.0);
    const Quantile us99 = quantile(best_us, 0, 99.0);
    const Quantile fh50 = quantile(responses_.first_hit, responses_.failed, 50.0);
    const Quantile fh99 = quantile(responses_.first_hit, responses_.failed, 99.0);
    const Quantile rs50 = quantile(responses_.response, responses_.failed, 50.0);
    const Quantile rs99 = quantile(responses_.response, responses_.failed, 99.0);

    NodeRounds maint;
    NodeRounds walk_msgs;
    NodeRounds hs_msgs;
    NodeRounds adapt_walk_b;
    NodeRounds hs_b;
    NodeRounds gossip_b;
    std::vector<double> round_ms;
    std::vector<double> round_cpu_ms;
    const std::vector<double> best_adapt_s = best_rounds(&RoundSample::adapt_s);
    const std::vector<double> best_adapt_cpu_s = best_rounds(&RoundSample::adapt_cpu_s);
    double round_wall = 0.0;
    double round_cpu = 0.0;
    for (size_t r = 0; r < best_adapt_s.size(); ++r) {
      round_ms.push_back(best_adapt_s[r] * 1e3);
      round_cpu_ms.push_back(best_adapt_cpu_s[r] * 1e3);
      round_wall += best_adapt_s[r];
      round_cpu += best_adapt_cpu_s[r];
    }
    uint64_t links_changed = 0;
    uint64_t aborts = 0;
    uint64_t retries = 0;
    uint64_t skips = 0;
    uint64_t rel_hits = 0;
    uint64_t rel_misses = 0;
    for (const RoundSample& r : rounds_of(first)) {
      maint.add_round(static_cast<double>(r.maintenance_bytes()), r.alive);
      walk_msgs.add_round(static_cast<double>(r.stats.walk_messages), r.alive);
      hs_msgs.add_round(static_cast<double>(r.stats.handshake_messages), r.alive);
      adapt_walk_b.add_round(static_cast<double>(r.stats.walk_bytes), r.alive);
      hs_b.add_round(static_cast<double>(r.stats.handshake_bytes), r.alive);
      gossip_b.add_round(static_cast<double>(r.stats.gossip_bytes), r.alive);
      links_changed += r.stats.semantic_links_added + r.stats.semantic_links_dropped +
                       r.stats.random_links_added + r.stats.random_links_dropped +
                       r.stats.links_reclassified;
      aborts += r.stats.handshake_aborts;
      retries += r.stats.handshake_retries;
      skips += r.stats.backoff_skips;
      rel_hits += r.rel_hits;
      rel_misses += r.rel_misses;
    }
    const double n_rounds = static_cast<double>(rounds_of(first).size());

    rep_.lines.push_back("input: requests " + std::to_string(props.requests) + ", distinct " +
                         std::to_string(props.distinct) + ", repeat_share " +
                         fmt("%.4f", props.repeat_share) + ", mean query terms " +
                         fmt("%.3f", props.mean_terms) + ", alive share at end " +
                         fmt("%.4f", alive_share) + ", probe budget " +
                         std::to_string(budget_));
    std::string setups = "setup: median of " + std::to_string(episodes_.size()) + " (";
    for (const Episode& ep : episodes_) setups += fmt(" %.3f", ep.setup.total_s);
    rep_.lines.push_back(setups + " ) s");
    rep_.lines.push_back("query_us: p50 " + fmt("%.2f", us50.value) + ", p99 " +
                         fmt("%.2f", us99.value) + " over " + std::to_string(us99.samples) +
                         " samples, " + std::to_string(us99.beyond) + " beyond p99");
    rep_.lines.push_back(
        "response_s: p50 " + fmt("%.4f", rs50.value) + ", p99 " + fmt("%.4f", rs99.value) +
        " over " + std::to_string(rs99.samples) + " samples (" +
        std::to_string(responses_.failed) + " failed), " + std::to_string(rs99.beyond) +
        " beyond p99; first_hit over " + std::to_string(fh99.samples) + " (" +
        std::to_string(responses_.no_hit) + " completed without a hit)");
    rep_.lines.push_back("queries: " + std::to_string(tally.outcomes.attempted) +
                         " attempted, " + std::to_string(tally.outcomes.failed) +
                         " failed (walk lost or no neighbour before the budget)");
    for (const Quantile* q : {&us99, &fh99, &rs99}) {
      if (!q->finite || q->beyond < 10) {
        rep_.violations.push_back("a reported p99 has " + std::to_string(q->beyond) +
                                  " samples beyond it (need 10) or lies among failed queries");
      }
    }

    if (!cfg_.traced) {
      add("setup_s", median_setup(&SetupSample::total_s), "s");
      add("queries_per_s", ratio(queries, best_s), "1/s");
      add("query_us_p50", us50.value, "us");
      add("query_us_p99", us99.value, "us");
      add("rounds_per_s", rounds_per_s(), "1/s");
      add("cpu_s", best_of(&Episode::cpu_s), "s");
      add("peak_rss_mb", peak_rss_mb(), "MB");
      add("recall", ratio(tally.recall_sum, queries), "ratio");
      add("probes_per_query", ratio(static_cast<double>(tally.answered), queries), "count");
      add("bytes_per_query",
          ratio(static_cast<double>(tally.walk_bytes + tally.flood_bytes + cache_b), queries),
          "B");
      add("first_hit_s_p50", fh50.value, "sim_s");
      add("first_hit_s_p99", fh99.value, "sim_s");
      add("response_s_p50", rs50.value, "sim_s");
      add("response_s_p99", rs99.value, "sim_s");
      add("maint_bytes_per_node_round", maint.per_node_round(), "B");
      add("completed_share", tally.outcomes.completed_share(), "ratio");
      return;
    }

    const SetupSample& first_setup = first.setup;
    add("corpus.generate_s", median_setup(&SetupSample::generate_s), "s");
    add("corpus.rss_mb", first_setup.corpus_rss_mb, "MB");
    add("p2p.network.build_s", median_setup(&SetupSample::build_s), "s");
    add("p2p.network.bootstrap_s", median_setup(&SetupSample::bootstrap_s), "s");
    add("p2p.network.rss_mb", first_setup.network_rss_mb, "MB");

    add("ges.topology_adaptation.warmup_s", median_setup(&SetupSample::warmup_s), "s");
    add("ges.topology_adaptation.round_ms_p50", quantile(round_ms, 0, 50.0).value, "ms");
    add("ges.topology_adaptation.round_ms_p90", quantile(round_ms, 0, 90.0).value, "ms");
    add("ges.topology_adaptation.round_cpu_ms_p50", quantile(round_cpu_ms, 0, 50.0).value,
        "ms");
    add("ges.topology_adaptation.walk_messages_per_node_round", walk_msgs.per_node_round(),
        "count");
    add("ges.topology_adaptation.handshake_messages_per_node_round", hs_msgs.per_node_round(),
        "count");
    add("ges.topology_adaptation.links_changed_per_round",
        ratio(static_cast<double>(links_changed), n_rounds), "count");
    add("ges.topology_adaptation.handshake_aborts", static_cast<double>(aborts), "count");
    add("ges.topology_adaptation.handshake_retries", static_cast<double>(retries), "count");
    add("ges.topology_adaptation.backoff_skips", static_cast<double>(skips), "count");
    add("ges.topology_adaptation.rss_growth_mb", first_setup.warmup_rss_mb, "MB");

    const double workers = static_cast<double>(util::global_pool().size());
    add("util.thread_pool.workers", workers, "count");
    add("util.thread_pool.round_busy_share", ratio(round_cpu, round_wall * workers), "ratio");

    add("p2p.rel_cache.hit_share",
        ratio(static_cast<double>(rel_hits), static_cast<double>(rel_hits + rel_misses)),
        "ratio");
    add("p2p.rel_cache.entries", static_cast<double>(runner.network().rel_cache().size()),
        "count");
    add("p2p.rel_cache.misses_per_round", ratio(static_cast<double>(rel_misses), n_rounds),
        "count");

    const double events = static_cast<double>(after.events - before.events);
    const double run_until_s = best_of(&Episode::run_until_s);
    add("p2p.event_sim.events", events, "count");
    add("p2p.event_sim.run_until_s", run_until_s, "s");
    add("p2p.event_sim.ns_per_event", ratio(run_until_s * 1e9, events), "ns");

    const double node_rounds = measured_node_rounds();
    add("p2p.replication.heartbeats_per_node_round",
        ratio(static_cast<double>(after.heartbeats_sent - before.heartbeats_sent), node_rounds),
        "count");
    add("p2p.replication.heartbeat_bytes_per_node_round",
        ratio(static_cast<double>(after.heartbeat_bytes - before.heartbeat_bytes), node_rounds),
        "B");
    add("p2p.replication.heartbeats_lost",
        static_cast<double>(after.heartbeats_lost - before.heartbeats_lost), "count");

    add("p2p.churn.departures", static_cast<double>(after.departures - before.departures),
        "count");
    add("p2p.churn.arrivals", static_cast<double>(after.arrivals - before.arrivals), "count");
    add("p2p.churn.alive_share_end", alive_share, "ratio");

    add("p2p.fault_injection.messages_dropped",
        static_cast<double>(after.dropped - before.dropped), "count");
    add("p2p.fault_injection.messages_blocked",
        static_cast<double>(after.blocked - before.blocked), "count");
    add("p2p.fault_injection.handshake_deaths",
        static_cast<double>(after.handshake_deaths - before.handshake_deaths), "count");

    add("ges.search.us_per_query_p50", us50.value, "us");
    add("ges.search.ns_per_probe", ratio(best_s * 1e9, static_cast<double>(tally.probes)),
        "ns");
    add("ges.search.walk_steps_per_query", ratio(static_cast<double>(tally.walk_steps), queries),
        "count");
    add("ges.search.flood_messages_per_query",
        ratio(static_cast<double>(tally.flood_messages), queries), "count");
    add("ges.search.targets_per_query", ratio(static_cast<double>(tally.targets), queries),
        "count");
    add("ges.search.rel_evals_per_query", ratio(static_cast<double>(tally.rel_evals), queries),
        "count");
    add("ges.search.rel_memo_hit_share",
        ratio(static_cast<double>(tally.rel_memo_hits),
              static_cast<double>(tally.rel_memo_hits + tally.rel_evals)),
        "ratio");

    add("ir.local_index.evaluate_ns_per_probe",
        ratio(evaluate_s_ * 1e9, static_cast<double>(tally.probes)), "ns");
    add("ir.local_index.evaluate_share", ratio(evaluate_s_, best_s), "ratio");

    const bool async = cfg_.workload == Workload::kSearchAsyncZipf;
    add("ges.async_search.events_per_query", async ? ratio(events, queries) : 0.0, "count");
    add("ges.async_search.max_in_flight", static_cast<double>(first.max_in_flight), "count");

    size_t entries = 0;
    for (p2p::NodeId n = 0; n < runner.network().size(); ++n) {
      entries += runner.result_cache().entry_count(n);
    }
    add("ges.result_cache.hit_share",
        ratio(static_cast<double>(tally.cache_hit_queries), queries), "ratio");
    add("ges.result_cache.stores", static_cast<double>(after.cache.stores - before.cache.stores),
        "count");
    add("ges.result_cache.evictions",
        static_cast<double>(after.cache.evictions - before.cache.evictions), "count");
    add("ges.result_cache.invalidations",
        static_cast<double>(after.cache.invalidations - before.cache.invalidations), "count");
    add("ges.result_cache.entries_end", static_cast<double>(entries), "count");
    add("ges.result_cache.repeat_share", props.repeat_share, "ratio");

    add("p2p.wire.walk_bytes_per_query", ratio(static_cast<double>(tally.walk_bytes), queries),
        "B");
    add("p2p.wire.flood_bytes_per_query",
        ratio(static_cast<double>(tally.flood_bytes), queries), "B");
    add("p2p.wire.cache_bytes_per_query", ratio(static_cast<double>(cache_b), queries), "B");
    add("p2p.wire.adapt_walk_bytes_per_node_round", adapt_walk_b.per_node_round(), "B");
    add("p2p.wire.handshake_bytes_per_node_round", hs_b.per_node_round(), "B");
    add("p2p.wire.gossip_bytes_per_node_round", gossip_b.per_node_round(), "B");

    add("obs.flight_retained", static_cast<double>(obs::flight().retained_count()), "count");

    add("input.distinct_queries", static_cast<double>(props.distinct), "count");
    add("input.mean_query_terms", props.mean_terms, "count");

    for (const auto& [name, coverage] : coverage_) {
      rep_.lines.push_back(std::string("span coverage of ") + name + ": " +
                           fmt("%.4f", coverage));
    }
    for (const auto& [name, t] : spans_.totals_by_name()) {
      rep_.lines.push_back("span " + name + ": " + std::to_string(t.count) + " spans, total " +
                           fmt("%.4f", t.total_s) + " s, self " + fmt("%.4f", t.self_s) + " s");
    }
  }

  const RunConfig& cfg_;
  Report& rep_;
  SpanLog spans_;
  Deployment dep_;
  std::vector<Episode> episodes_;
  std::unique_ptr<QueryGenerator> gen_;

  std::vector<GenQuery> queries_;
  std::vector<uint32_t> stream_;   // query index per request
  std::vector<Request> requests_;
  core::SearchOptions options_;
  size_t budget_ = 1;
  size_t rounds_ = 0;

  bool keep_orders_ = false;  // keep probe orders for the evaluate replay
  ResponseTally responses_;   // simulated response times (measured or replayed)
  uint64_t replay_checksum_ = kFnvOffset;
  double evaluate_s_ = 0.0;
  std::vector<std::pair<std::string, double>> coverage_;
};

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  for (const Workload w : {Workload::kSearchSync, Workload::kSearchAsyncZipf,
                           Workload::kChurnMaintenance}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

Report run(const RunConfig& config) {
  // Every observability switch is set explicitly, whatever GES_TELEMETRY
  // says; ScenarioRunner turns the flight recorder on for traced runs.
  obs::global().set_enabled(config.traced);
  obs::flight().set_enabled(false);
  Report report;
  Bench(config, report).run();
  report.lines.insert(report.lines.begin(),
                      std::string("workload ") + workload_name(config.workload) + ", seed " +
                          std::to_string(config.seed) + ", seconds " +
                          std::to_string(config.seconds) + ", traced " +
                          (config.traced ? "1" : "0"));
  return report;
}

}  // namespace e2e
