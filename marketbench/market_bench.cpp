// marketbench: the market-period benchmark binary.
//
// One binary, four workloads, each generated from --seed and driven only
// through planetmarket's public APIs:
//
//   big-shard         one FederatedExchange shard (10,000 teams x 200
//                     clusters), serial, RunEpoch();
//   bid-window        §V.A bid windows over Markets of 10,000 teams x 34
//                     clusters: staggered MakeBids/Submit, preliminary-price
//                     ticks, binding ClockAuction + Settle;
//   planet-churn      a ScenarioRunner over 4 x 1,000 x 40 with the whole
//                     economy, supervisor, watchdog and shock timeline on;
//   planet-pipelined  16 x 1,000 x 50, pipelined RunEpochs on nproc-1
//                     threads.
//
// A "period" is one epoch, or one bid window on bid-window. Each workload
// measures units of work that replay identically and keeps each unit's
// fastest replay (see UnitBest). The binary prints one JSON object of raw
// results (set-up times, per-unit bests, RSS, checks, output digest, and
// in --trace mode the per-layer sums); marketbench/run.py turns it into
// the reported metrics. See marketbench/README.md for the definitions.
//
//   marketbench --workload W --seed N --seconds S [--trace 0|1]
//               [--scale full|smoke] [--trace-dir DIR]
#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "agents/workload_gen.h"
#include "auction/clock_auction.h"
#include "auction/settlement.h"
#include "auction/system_check.h"
#include "bid/bid.h"
#include "common/phase_span.h"
#include "common/rng.h"
#include "exchange/bid_window.h"
#include "exchange/endowment.h"
#include "exchange/market.h"
#include "federation/federated_exchange.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/event_queue.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"

// Timings from a debug or sanitizer build would be meaningless, so such a
// build refuses to run at all (run.py never reports a number from it).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MB_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define MB_SANITIZED 1
#endif
#endif
#ifndef MB_SANITIZED
#define MB_SANITIZED 0
#endif
#ifndef MB_BUILD_TYPE
#define MB_BUILD_TYPE "unknown"
#endif
#ifndef MB_CXX_FLAGS
#define MB_CXX_FLAGS ""
#endif
#ifndef MB_COMPILER
#define MB_COMPILER "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using pm::federation::FederatedExchange;
using pm::federation::FederationConfig;
using pm::federation::FederationReport;
using pm::federation::ShardEpochSummary;
using pm::federation::ShardSpec;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double MsBetween(std::uint64_t begin_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// CPUs this process may run on (what `nproc` prints), which is fewer than
/// the machine's when a CPU set or affinity mask restricts it.
std::size_t UsableCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&allowed)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {0};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {0};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const std::size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

/// FNV-1a over the deterministic outputs of the first periods of a run:
/// settled prices (bit patterns) and award records. Equal seeds must give
/// equal digests, traced or not, on any thread count.
class Digest {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Double(double v) { Bytes(&v, sizeof(v)); }
  void Int(long long v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    Int(static_cast<long long>(s.size()));
    Bytes(s.data(), s.size());
  }
  void Prices(const std::vector<double>& prices) {
    Int(static_cast<long long>(prices.size()));
    for (const double p : prices) Double(p);
  }
  void Report(const pm::exchange::AuctionReport& r) {
    Prices(r.settled_prices);
    Int(r.rounds);
    Int(static_cast<long long>(r.awards.size()));
    for (const pm::exchange::AwardRecord& a : r.awards) {
      Str(a.bid_name);
      Int(a.bundle_index);
      Double(a.payment);
      Double(a.outcome.placed_units);
    }
  }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Every world/shard/market seed of a workload derives from the --seed
/// argument through this one expansion.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  return pm::SplitMix64(seed ^ (salt * 0x9e3779b97f4a7c15ULL)).Next();
}

// ------------------------------------------------------------- layers --

/// Per-layer accumulators of a traced pass: named sums (times in ms,
/// counts).
class Layers {
 public:
  void Add(const std::string& name, double value) { sums_[name] += value; }
  /// A closed benchmark span, added to `name`'s sum.
  void Span(const std::string& name, std::uint64_t begin_ns,
            std::uint64_t end_ns) {
    Add(name, MsBetween(begin_ns, end_ns));
  }
  const std::map<std::string, double>& sums() const { return sums_; }

 private:
  std::map<std::string, double> sums_;
};

/// Returns `fn()`, timed into `layers` under `name` when non-null.
template <typename Fn>
auto Timed(Layers* layers, const std::string& name, Fn&& fn) {
  if (layers == nullptr) return fn();
  const std::uint64_t begin = pm::PhaseNowNs();
  auto result = fn();
  layers->Span(name, begin, pm::PhaseNowNs());
  return result;
}

// ------------------------------------------------------------ results --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_dir = ".";
};

/// The best of a unit's replays. A unit is a piece of work that replays
/// identically (the same run of epochs restored from a checkpoint, the
/// same scenario from the same seed, the same bid window on the same
/// world).
/// The host's speed drifts by tens of percent from minute to minute, so
/// the fastest replay, not the typical one, is the stable estimate of
/// what the program costs.
struct UnitBest {
  int periods = 0;
  int replays = 0;
  double best_ms = 0.0;
  double best_cpu_s = 0.0;
  // Per split index, the fastest over replays: each preliminary tick on
  // bid-window, each epoch (or RunEpochs call) of a federation unit.
  std::vector<double> best_split_ms;
  std::string digest;  // Outputs of the first replay.
};

/// Raw samples of one invocation; run.py derives every reported metric.
struct Result {
  std::vector<double> setup_s;
  std::vector<UnitBest> units;
  double measure_s = 0.0;  // Σ measured replay walls.
  double peak_rss_mb = 0.0;  // Through the first replay of every unit.
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  std::string digest;
  std::map<std::string, std::string> config;  // Stated sizes and pools.
  // --trace 1 only: one untraced and one traced replay of every unit.
  Layers layers;
  int traced_periods = 0;
  double untraced_best_ms = 0.0;  // Σ fastest untraced replay per unit.
  double traced_wall_ms = 0.0;
  int trace_first_epoch = 0;  // Program-trace epochs before it are warm-up.
  std::string program_trace;  // PhaseProfiler::ChromeTraceJson().

  /// Records one replay of `unit` (`periods` periods, its split times
  /// and its output digest, which must match every other replay's).
  void Replay(std::size_t unit, int periods, double ms, double cpu_s,
              const std::vector<double>& splits, const std::string& out) {
    if (units.size() <= unit) units.resize(unit + 1);
    UnitBest& u = units[unit];
    measure_s += ms / 1e3;
    if (u.replays++ == 0) {
      u = UnitBest{periods, 1, ms, cpu_s, splits, out};
      return;
    }
    if (out != u.digest || splits.size() != u.best_split_ms.size()) {
      Fail("unit " + std::to_string(unit) +
           ": a replay produced different outputs");
      return;
    }
    u.best_ms = std::min(u.best_ms, ms);
    u.best_cpu_s = std::min(u.best_cpu_s, cpu_s);
    for (std::size_t i = 0; i < splits.size(); ++i) {
      u.best_split_ms[i] = std::min(u.best_split_ms[i], splits[i]);
    }
  }
  /// The measuring loop's condition: no failure yet, at least kMinReplays
  /// of each of `num_units` units, then until `elapsed_s` reaches
  /// `seconds`.
  bool NeedMore(std::size_t num_units, double elapsed_s,
                double seconds) const {
    constexpr int kMinReplays = 2;
    if (failed > 0) return false;
    if (units.size() < num_units) return true;
    for (const UnitBest& u : units) {
      if (u.replays < kMinReplays) return true;
    }
    return elapsed_s < seconds;
  }
  double SumBestMs() const {
    double sum = 0.0;
    for (const UnitBest& u : units) sum += u.best_ms;
    return sum;
  }
  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  /// Folds another pass's operation counts and failures into this one.
  void Absorb(const Result& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& why : other.failures) {
      if (failures.size() < 20) failures.push_back(why);
    }
  }
};

/// Pins the calling thread to one allowed CPU at a time, in rotation, and
/// restores the original mask when destroyed. On a shared host each vCPU's
/// speed depends on its neighbours and shifts over time, so a fastest
/// sample is taken over CPUs as well as over time. Only single-threaded
/// work is pinned: a thread pool created while pinned inherits the mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
      }
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the i-th allowed CPU (modulo their number).
  void Pin(std::size_t i) {
    if (cpus_.size() <= 1) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

/// Replays units 0..num_units-1 round-robin while `r.NeedMore`, counting
/// the whole loop's wall time (restores, rebuilds, probes) against
/// `seconds`. With `rotate_cpus` (single-threaded workloads only) each
/// replay runs pinned, rotating, shifted by one CPU per round so every
/// unit visits every CPU.
template <typename ReplayFn>
void Measure(std::size_t num_units, double seconds, bool rotate_cpus,
             Result& r, ReplayFn&& replay) {
  std::unique_ptr<CpuRotation> rotation;
  if (rotate_cpus) rotation = std::make_unique<CpuRotation>();
  const auto start = Clock::now();
  for (std::size_t i = 0;
       r.NeedMore(num_units, MsSince(start) / 1e3, seconds); ++i) {
    if (rotation) rotation->Pin(i % num_units + i / num_units);
    replay(i % num_units);
    // Later replays repeat the same work, but a federation's History()
    // grows with every replayed epoch, so a peak taken at the end would
    // grow with the host's speed.
    if (i + 1 == num_units) r.peak_rss_mb = PeakRssMb();
  }
}

/// Times one batch of `setup()` (world generation plus market /
/// federation / runner construction, all single-threaded), each pinned to
/// the next allowed CPU, continuing the rotation of earlier batches: at
/// least kMinSetups, then until kBatchSeconds of wall time. Every workload
/// takes one batch before its replays and one after them, so the samples
/// span the run; run.py reports the fastest as setup_s.
template <typename SetupFn>
void MeasureSetups(Result& r, SetupFn&& setup) {
  constexpr int kMinSetups = 2;
  constexpr int kMaxSetups = 8;
  constexpr double kBatchSeconds = 1.5;
  CpuRotation rotation;
  const auto start = Clock::now();
  for (int i = 0; i < kMaxSetups &&
                  (i < kMinSetups || MsSince(start) / 1e3 < kBatchSeconds);
       ++i) {
    rotation.Pin(r.setup_s.size());
    const auto t0 = Clock::now();
    setup();
    r.setup_s.push_back(MsSince(t0) / 1e3);
  }
}

/// Checks shared by every market-backed workload: each participating
/// shard auction converged, and every physically placed award conserves
/// units when refunds are on (awarded == placed + refunded).
void CheckShardReports(const FederationReport& report, bool refunds,
                       Result& r) {
  for (const ShardEpochSummary& shard : report.shards) {
    if (!shard.participated || shard.failed) continue;
    ++r.attempted;
    const pm::exchange::AuctionReport& a = shard.report;
    if (!a.converged) {
      r.Fail("epoch " + std::to_string(report.epoch) + " shard " +
             shard.name + ": auction did not converge");
      continue;
    }
    if (!refunds) continue;
    for (const pm::exchange::AwardRecord& award : a.awards) {
      if (award.outcome.quota_only) continue;
      const double gap = std::abs(award.outcome.awarded_units -
                                  award.outcome.placed_units -
                                  award.outcome.refunded_units);
      if (gap > 1e-6 * std::max(1.0, award.outcome.awarded_units)) {
        r.Fail("epoch " + std::to_string(report.epoch) + " shard " +
               shard.name + ": awarded != placed + refunded for " +
               award.bid_name);
        break;
      }
    }
  }
}

/// Per-period counts read off one federated epoch's reports.
void AddReportCounts(const FederationReport& report, Layers& layers) {
  for (const ShardEpochSummary& shard : report.shards) {
    if (!shard.participated || shard.failed) continue;
    const pm::exchange::AuctionReport& a = shard.report;
    layers.Add("auction.rounds", a.rounds);
    layers.Add("auction.demand_evaluations",
               static_cast<double>(a.demand_evaluations));
    layers.Add("auction.proxies_reevaluated",
               static_cast<double>(a.proxies_reevaluated));
    layers.Add("auction.bisection_probes",
               static_cast<double>(a.bisection_probes));
    layers.Add("auction.dot_blocks", static_cast<double>(a.dot_blocks));
    layers.Add("auction.dirty_bidders", static_cast<double>(a.dirty_bidders));
    layers.Add("exchange.bids", static_cast<double>(a.num_bids));
    layers.Add("exchange.winners", static_cast<double>(a.num_winners));
    layers.Add("exchange.trades", static_cast<double>(a.trades.size()));
    layers.Add("exchange.moves", static_cast<double>(a.moves.size()));
    layers.Add("exchange.placement_failures",
               static_cast<double>(a.placement_failures));
    for (const pm::exchange::AwardRecord& award : a.awards) {
      layers.Add("exchange.awarded_units", award.outcome.awarded_units);
      layers.Add("exchange.placed_units", award.outcome.placed_units);
    }
  }
  layers.Add("federation.routed_parts",
             static_cast<double>(report.routed_parts));
  layers.Add("federation.spilled_bids",
             static_cast<double>(report.spilled_bids));
  layers.Add("federation.rejected_parts",
             static_cast<double>(report.rejected_parts));
  layers.Add("federation.contained_failures",
             static_cast<double>(report.health.failed_shards));
  layers.Add("federation.checkpoint_restores",
             static_cast<double>(report.health.restored_checkpoints));
  layers.Add("federation.migrations",
             static_cast<double>(report.migrations.size()));
}

/// Read-only probes of one market's live state at a period boundary: the
/// cluster utilization paths, the reserve pricer and a checkpoint frame.
void ProbeMarket(const pm::exchange::Market& market, Layers& layers) {
  const pm::cluster::Fleet& fleet = market.fleet();
  std::uint64_t t = pm::PhaseNowNs();
  const std::vector<double> util = fleet.UtilizationVector();
  layers.Add("cluster.utilization_vector_us",
             MsBetween(t, pm::PhaseNowNs()) * 1e3);
  layers.Add("probe.utilization_vector_calls", 1);
  const std::vector<std::string> names = fleet.ClusterNames();
  t = pm::PhaseNowNs();
  double percentile_sum = 0.0;
  for (const std::string& name : names) {
    percentile_sum += fleet.UtilizationPercentile(name, pm::ResourceKind::kCpu);
  }
  layers.Add("cluster.utilization_percentile_us",
             MsBetween(t, pm::PhaseNowNs()) * 1e3);
  layers.Add("probe.utilization_percentile_calls",
             static_cast<double>(names.size()));
  t = pm::PhaseNowNs();
  const std::vector<double> reserve = market.CurrentReservePrices();
  layers.Add("reserve.price_us", MsBetween(t, pm::PhaseNowNs()) * 1e3);
  layers.Add("probe.reserve_calls", 1);
  t = pm::PhaseNowNs();
  const std::vector<std::uint8_t> frame = market.Snapshot();
  layers.Add("exchange.snapshot_ms", MsBetween(t, pm::PhaseNowNs()));
  layers.Add("exchange.snapshot_bytes", static_cast<double>(frame.size()));
  layers.Add("probe.snapshot_calls", 1);
  // Keeps the probed results observable so no call is optimized away.
  layers.Add("probe.checksum", static_cast<double>(util.size()) +
                                   static_cast<double>(reserve.size()) +
                                   percentile_sum);
}

/// ProbeMarket on every shard, plus the router's shard-view snapshot.
void ProbeMarkets(const FederatedExchange& fed, Layers& layers) {
  for (std::size_t k = 0; k < fed.NumShards(); ++k) {
    ProbeMarket(fed.ShardMarket(k), layers);
  }
  const std::uint64_t t = pm::PhaseNowNs();
  const std::vector<pm::federation::ShardView> views = fed.BuildShardViews();
  layers.Add("federation.build_views_ms", MsBetween(t, pm::PhaseNowNs()));
  layers.Add("probe.build_views_calls", 1);
  layers.Add("probe.checksum", static_cast<double>(views.size()));
}

/// Times GenerateWorld for each shard recipe on a throwaway copy (the
/// federation generates its own worlds inside its constructor).
void ProbeWorldGeneration(const std::vector<ShardSpec>& specs,
                          std::uint64_t fed_seed, Layers& layers) {
  for (std::size_t k = 0; k < specs.size(); ++k) {
    pm::agents::WorkloadConfig config = specs[k].workload;
    config.seed = FederatedExchange::ShardWorkloadSeed(fed_seed, k);
    const std::uint64_t t = pm::PhaseNowNs();
    const pm::agents::World world = pm::agents::GenerateWorld(config);
    layers.Add("agents.generate_world_ms", MsBetween(t, pm::PhaseNowNs()));
    layers.Add("probe.checksum", static_cast<double>(world.agents.size()));
  }
  layers.Add("probe.world_setups", 1);
}

void ProbeTelemetry(const FederatedExchange& fed, Layers& layers,
                    Result& r) {
  const pm::telemetry::Telemetry* telemetry = fed.telemetry();
  if (telemetry == nullptr) return;
  const std::uint64_t t = pm::PhaseNowNs();
  const std::string json = telemetry->MetricsJson();
  layers.Add("telemetry.metrics_json_ms", MsBetween(t, pm::PhaseNowNs()));
  layers.Add("telemetry.metrics_json_bytes", static_cast<double>(json.size()));
  if (telemetry->profiler() != nullptr) {
    r.program_trace = telemetry->profiler()->ChromeTraceJson();
  }
}

// ---------------------------------------------------------- federation --

/// Market settings shared by every federation workload's shards.
pm::exchange::MarketConfig ShardMarketConfig() {
  pm::exchange::MarketConfig market;
  market.auction.max_rounds = 30000;
  market.settlement.refund_unplaced = true;
  return market;
}

struct FederationWorkload {
  std::vector<ShardSpec> specs;
  FederationConfig config;
  int federated_bids_per_epoch = 0;
  int epochs_per_call = 1;  // RunEpochs(n) chunk; 1 means RunEpoch().
};

/// Consecutive calls in one replayed unit. Later epochs of the loop cost
/// less than the first after the bootstrap (README.md, "How a run
/// measures"), so a unit covers several; more would leave too few replays
/// in a run to take a fastest one from.
constexpr int kCallsPerUnit = 3;

/// A few federation-level bids per epoch so the router has work. Their
/// tags do not depend on the epoch, so replays of a unit are identical.
void SubmitFederatedBids(FederatedExchange& fed, int count) {
  for (int b = 0; b < count; ++b) {
    pm::federation::FederatedBid bid;
    bid.team = "bench-global";
    bid.tag = "b" + std::to_string(b);
    bid.quantity = pm::cluster::TaskShape{16.0, 64.0, 2.0};
    bid.limit = 50000.0;
    fed.SubmitFederatedBid(bid);
  }
}

/// A federation after its warm-up call, with every shard's checkpoint
/// frame: restoring them replays the same run of epochs bit for bit (the
/// supervisor's own rollback mechanism).
struct ReplayableFederation {
  std::unique_ptr<FederatedExchange> fed;
  std::vector<std::vector<std::uint8_t>> frames;
  double construct_ms = 0.0;
};

/// One RunEpoch (or RunEpochs chunk) with its checks; returns the digest
/// of the call's shard reports and, via `ms`/`cpu_s`, its cost.
std::string FederationCall(const FederationWorkload& w,
                           FederatedExchange& fed, Result& r, Layers* layers,
                           double& ms, double& cpu_s) {
  const int first = fed.EpochCount();
  SubmitFederatedBids(fed, w.federated_bids_per_epoch);
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  if (w.epochs_per_call == 1) {
    fed.RunEpoch();
  } else {
    fed.RunEpochs(w.epochs_per_call);
  }
  ms = MsSince(t0);
  cpu_s = CpuSeconds() - cpu0;
  const bool refunds = w.specs.front().market.settlement.refund_unplaced;
  Digest digest;
  for (int e = first; e < fed.EpochCount(); ++e) {
    const FederationReport& report = fed.History()[e];
    CheckShardReports(report, refunds, r);
    for (const ShardEpochSummary& s : report.shards) digest.Report(s.report);
    if (layers != nullptr) AddReportCounts(report, *layers);
  }
  return digest.Hex();
}

/// Builds the federation, runs the unmeasured warm-up call (the market's
/// one-off bootstrap: initial endowment, first bids at fixed prices) and
/// checkpoints every shard.
ReplayableFederation PrepareFederation(const FederationWorkload& w,
                                       FederationConfig config, Result& r,
                                       Digest& digest) {
  ReplayableFederation rf;
  const auto t0 = Clock::now();
  rf.fed = std::make_unique<FederatedExchange>(w.specs, std::move(config));
  rf.construct_ms = MsSince(t0);
  if (w.federated_bids_per_epoch > 0) {
    rf.fed->EndowFederatedTeam("bench-global",
                               pm::Money::FromDollars(1000000));
  }
  double ms = 0.0, cpu = 0.0;
  digest.Str(FederationCall(w, *rf.fed, r, nullptr, ms, cpu));
  for (std::size_t k = 0; k < rf.fed->NumShards(); ++k) {
    rf.frames.push_back(rf.fed->ShardMarket(k).Snapshot());
  }
  return rf;
}

/// Restores every shard to its post-warm-up checkpoint and replays the
/// measured unit, kCallsPerUnit consecutive calls, into `r` (with
/// `layers`: report counts, and probes of live state after each call).
void ReplayFederation(const FederationWorkload& w, ReplayableFederation& rf,
                      Result& r, Layers* layers) {
  for (std::size_t k = 0; k < rf.frames.size(); ++k) {
    rf.fed->ShardMarket(k).Restore(rf.frames[k]);
  }
  Digest digest;
  std::vector<double> splits;
  double unit_ms = 0.0, unit_cpu = 0.0;
  for (int c = 0; c < kCallsPerUnit; ++c) {
    double ms = 0.0, cpu = 0.0;
    digest.Str(FederationCall(w, *rf.fed, r, layers, ms, cpu));
    splits.push_back(ms);
    unit_ms += ms;
    unit_cpu += cpu;
    if (layers != nullptr) ProbeMarkets(*rf.fed, *layers);
  }
  r.Replay(0, w.epochs_per_call * kCallsPerUnit, unit_ms, unit_cpu,
           splits, digest.Hex());
}

/// Setup timing and the measured replays, or (--trace 1) `traced_replays`
/// untraced and as many traced replays.
void RunFederationWorkload(const FederationWorkload& w, const Args& args,
                           int traced_replays, Result& r) {
  r.config["epochs_per_unit"] =
      std::to_string(w.epochs_per_call * kCallsPerUnit);
  if (w.config.pipelined) {
    // RunEpochs takes the pipeline only with a thread pool, which the
    // federation creates only for two or more threads; anything less
    // would quietly time the serial loop.
    ++r.attempted;
    if (w.config.num_threads < 2) {
      r.Fail("pipelined epochs need a pool of at least 2 threads, have " +
             std::to_string(w.config.num_threads));
      return;
    }
    r.config["pipelined"] = args.trace ? "checked by window-wait spans"
                                       : "eligible: pool >= 2, telemetry "
                                         "off, no supervisor, economy or "
                                         "routed bids";
  }
  FederationConfig untraced = w.config;
  untraced.telemetry = pm::telemetry::TelemetryConfig{};
  if (!args.trace) {
    auto setup = [&] { FederatedExchange fed(w.specs, untraced); };
    MeasureSetups(r, setup);
    {
      Digest digest;
      ReplayableFederation rf = PrepareFederation(w, untraced, r, digest);
      Measure(1, args.seconds, w.config.num_threads <= 1, r,
              [&](std::size_t) { ReplayFederation(w, rf, r, nullptr); });
      if (!r.units.empty()) digest.Str(r.units.front().digest);
      r.digest = digest.Hex();
    }
    MeasureSetups(r, setup);
    return;
  }
  Digest plain_digest;
  {
    Result plain;
    ReplayableFederation rf = PrepareFederation(w, untraced, plain,
                                                plain_digest);
    for (int i = 0; i < traced_replays; ++i) {
      ReplayFederation(w, rf, plain, nullptr);
    }
    plain_digest.Str(plain.units.front().digest);
    r.untraced_best_ms = plain.SumBestMs();
    r.Absorb(plain);
  }
  // Traced pass: the profiler's wall channel plus the benchmark's probes.
  FederationConfig traced = w.config;
  traced.telemetry.enabled = true;
  traced.telemetry.profiler.wall_clock = true;
  ProbeWorldGeneration(w.specs, w.config.seed, r.layers);
  Digest digest;
  ReplayableFederation rf = PrepareFederation(w, traced, r, digest);
  r.layers.Add("federation.construct_ms", rf.construct_ms);
  r.trace_first_epoch = rf.fed->EpochCount();
  for (int i = 0; i < traced_replays; ++i) {
    ReplayFederation(w, rf, r, &r.layers);
  }
  r.traced_periods = traced_replays * w.epochs_per_call * kCallsPerUnit;
  r.traced_wall_ms = r.measure_s * 1e3;
  digest.Str(r.units.front().digest);
  r.digest = digest.Hex();
  if (r.digest != plain_digest.Hex()) {
    r.Fail("traced and untraced passes produced different outputs");
  }
  ProbeTelemetry(*rf.fed, r.layers, r);
}

FederationWorkload BigShard(const Args& args) {
  FederationWorkload w;
  ShardSpec spec;
  spec.name = "big";
  spec.workload.num_teams = args.smoke ? 400 : 10000;
  spec.workload.num_clusters = args.smoke ? 20 : 200;
  spec.market = ShardMarketConfig();
  w.specs.push_back(spec);
  w.config.seed = DeriveSeed(args.seed, 1);
  w.config.num_threads = 0;
  w.federated_bids_per_epoch = 4;
  return w;
}

FederationWorkload PlanetPipelined(const Args& args, std::size_t pool) {
  FederationWorkload w;
  const int shards = args.smoke ? 4 : 16;
  for (int k = 0; k < shards; ++k) {
    ShardSpec spec;
    spec.name = "p" + std::to_string(k);
    spec.workload.num_teams = args.smoke ? 60 : 1000;
    spec.workload.num_clusters = args.smoke ? 8 : 50;
    spec.market = ShardMarketConfig();
    w.specs.push_back(spec);
  }
  w.config.seed = DeriveSeed(args.seed, 4);
  w.config.num_threads = pool;
  w.config.pipelined = true;
  w.epochs_per_call = 4;
  return w;
}

// ----------------------------------------------------------- bid-window --

struct WindowShape {
  double length = 10.0;       // Simulated window length.
  double tick_period = 0.5;   // Preliminary ticks at 0.5, 1.0, ... 9.5.
  int submission_slots = 40;  // Staggered submission instants.
};

/// One market of the bid-window workload: its world, the market over it,
/// and each team's budget.
struct WindowMarket {
  explicit WindowMarket(pm::agents::World w) : world(std::move(w)) {}
  pm::agents::World world;
  std::unique_ptr<pm::exchange::Market> market;
  std::vector<double> budgets;
};

/// Builds world `index` and the market over it. A run cycles over several
/// worlds: how hot a world's hottest pools run (and so how many clock
/// rounds each of its ticks takes) differs from draw to draw by up to 3x,
/// so a run must average over many worlds, not one.
std::unique_ptr<WindowMarket> BuildWindowMarket(const Args& args,
                                                std::uint64_t index,
                                                Layers* layers) {
  pm::agents::WorkloadConfig config;
  config.num_teams = args.smoke ? 200 : 10000;
  config.num_clusters = args.smoke ? 8 : 34;
  config.seed = DeriveSeed(args.seed, 100 + 2 * index);
  auto w = std::make_unique<WindowMarket>(
      Timed(layers, "agents.generate_world_ms",
            [&] { return pm::agents::GenerateWorld(config); }));
  if (layers != nullptr) layers->Add("probe.world_setups", 1);
  pm::exchange::MarketConfig market;
  market.auction.max_rounds = 30000;
  market.seed = DeriveSeed(args.seed, 101 + 2 * index);
  w->market = std::make_unique<pm::exchange::Market>(
      &w->world.fleet, &w->world.agents, w->world.fixed_prices, market);
  // The market endows budgets inside its first RunAuction, which this
  // workload never calls; apply the same endowment policy up front.
  const std::vector<pm::Money> endowments = pm::exchange::ComputeEndowments(
      w->world.fleet.registry(), w->world.agents, w->world.fixed_prices,
      pm::exchange::EndowmentPolicy{});
  for (const pm::Money& money : endowments) {
    w->budgets.push_back(money.ToDouble());
  }
  return w;
}

/// One bid window: staggered submissions, preliminary ticks, binding
/// auction and settlement. Returns the window's wall time in ms.
double RunOneWindow(WindowMarket& bw, const WindowShape& shape,
                    Result& r, Digest& digest,
                    Layers* layers, std::vector<double>& tick_ms) {
  pm::exchange::Market& market = *bw.market;
  const pm::cluster::Fleet& fleet = market.fleet();
  const auto t0 = Clock::now();
  // Market state does not move inside a window (no settlement pipeline
  // runs), so one view serves every submission.
  const std::vector<double> reserve = market.CurrentReservePrices();
  const std::vector<double> utilization = fleet.UtilizationVector();
  std::vector<double> supply = fleet.FreeVector();
  for (double& s : supply) s *= market.supply_fraction();

  pm::sim::EventQueue queue;
  pm::exchange::BidWindow window(
      queue, shape.length, shape.tick_period,
      [&](std::vector<pm::bid::Bid> book) {
        ++r.attempted;
        const std::uint64_t begin = pm::PhaseNowNs();
        std::vector<double> prices;
        try {
          prices = market.ComputePreliminaryPrices(std::move(book));
        } catch (const std::exception& e) {
          r.Fail(std::string("preliminary tick threw: ") + e.what());
        }
        const std::uint64_t end = pm::PhaseNowNs();
        for (const double p : prices) {
          if (!std::isfinite(p) || p < 0.0) {
            r.Fail("preliminary tick produced a non-finite price");
            break;
          }
        }
        tick_ms.push_back(MsBetween(begin, end));
        if (layers != nullptr) {
          layers->Span("auction.preliminary_ms", begin, end);
        }
        return prices;
      });

  std::vector<pm::agents::TeamAgent>& agents = bw.world.agents;
  const std::size_t n = agents.size();
  const int slots = shape.submission_slots;
  for (int slot = 0; slot < slots; ++slot) {
    const std::size_t lo = n * slot / slots;
    const std::size_t hi = n * (slot + 1) / slots;
    queue.ScheduleAt(shape.length * slot / slots, [&, lo, hi] {
      const std::uint64_t begin = pm::PhaseNowNs();
      std::size_t made = 0;
      for (std::size_t a = lo; a < hi; ++a) {
        pm::agents::MarketView view;
        view.registry = &fleet.registry();
        view.reserve_prices = reserve;
        view.utilization = utilization;
        view.free_capacity = supply;
        view.budget = bw.budgets[a];
        view.auction_index = 0;  // Each window opens a fresh market.
        std::vector<pm::bid::Bid> bids = agents[a].MakeBids(view);
        made += bids.size();
        for (pm::bid::Bid& bid : bids) {
          // The market's own budget gate and validation, as at collection.
          bid.limit = std::min(bid.limit, view.budget);
          for (double& limit : bid.bundle_limits) {
            limit = std::min(limit, view.budget);
          }
          if (!pm::bid::ValidateBid(bid, fleet.NumPools()).empty()) continue;
          window.Submit(std::move(bid));
        }
      }
      if (layers != nullptr) {
        layers->Span("agents.make_bids_ms", begin, pm::PhaseNowNs());
        layers->Add("agents.bids_made", static_cast<double>(made));
      }
    });
  }
  // Stop just short of close_at: the window's own close event would close
  // the book without handing the final bids to anyone.
  queue.RunUntil(std::nextafter(shape.length, 0.0));
  std::vector<pm::bid::Bid> final_bids = window.Close();

  // Binding auction at close, then settlement.
  ++r.attempted;
  try {
    const pm::auction::ClockAuction auction =
        Timed(layers, "auction.compile_ms", [&] {
          return pm::auction::ClockAuction(std::move(final_bids), supply,
                                           reserve,
                                           pm::auction::DemandEngineConfig{});
        });
    pm::auction::ClockAuctionConfig run_config =
        pm::exchange::DefaultMarketAuctionConfig();
    run_config.max_rounds = 30000;
    run_config.collect_phase_timings = layers != nullptr;
    const pm::auction::ClockAuctionResult result =
        Timed(layers, "auction.run_ms",
              [&] { return auction.Run(run_config); });
    const pm::auction::Settlement settlement = Timed(
        layers, "exchange.settle_ms",
        [&] { return pm::auction::Settle(auction, result); });
    if (!result.converged) {
      r.Fail("binding auction did not converge");
    } else {
      const pm::auction::SystemCheckResult audit =
          pm::auction::CheckSystemConstraints(
              auction, result, std::max(1e-6, run_config.demand_eps));
      if (!audit.Feasible()) {
        r.Fail("SYSTEM audit failed: " + audit.ToString());
      }
    }
    digest.Prices(result.prices);
    digest.Int(result.rounds);
    for (const pm::auction::Award& award : settlement.awards) {
      digest.Int(award.user);
      digest.Int(award.bundle_index);
      digest.Double(award.payment);
    }
    if (layers != nullptr) {
      for (const pm::PhaseSpan& span : result.phases) {
        layers->Add("auction." + span.name + "_ms",
                    MsBetween(span.begin_ns, span.end_ns));
      }
      layers->Add("auction.rounds", result.rounds);
      layers->Add("auction.demand_evaluations",
                  static_cast<double>(result.demand_evaluations));
      layers->Add("auction.proxies_reevaluated",
                  static_cast<double>(result.proxies_reevaluated));
      layers->Add("auction.bisection_probes",
                  static_cast<double>(result.bisection_probes));
      layers->Add("auction.dot_blocks", static_cast<double>(result.dot_blocks));
      layers->Add("auction.dirty_bidders",
                  static_cast<double>(result.dirty_bidders));
      layers->Add("exchange.bids", static_cast<double>(auction.NumUsers()));
      layers->Add("exchange.winners",
                  static_cast<double>(settlement.awards.size()));
    }
  } catch (const std::exception& e) {
    r.Fail(std::string("binding auction threw: ") + e.what());
  }
  return MsSince(t0);
}

void RunBidWindow(const Args& args, int worlds, Result& r) {
  const WindowShape shape;
  // One replay of unit u: build world u from its seed and run one window
  // on it; every replay of u must give equal outputs.
  auto replay = [&](std::size_t u, Result& into, Layers* layers) {
    std::unique_ptr<WindowMarket> market =
        BuildWindowMarket(args, u, layers);
    Digest digest;
    std::vector<double> ticks;
    const double cpu0 = CpuSeconds();
    const double ms =
        RunOneWindow(*market, shape, into, digest, layers, ticks);
    into.Replay(u, 1, ms, CpuSeconds() - cpu0, ticks, digest.Hex());
    if (layers != nullptr) ProbeMarket(*market->market, *layers);
  };
  auto combined_digest = [](const Result& from) {
    Digest digest;
    for (const UnitBest& u : from.units) digest.Str(u.digest);
    return digest.Hex();
  };
  r.config["worlds"] = std::to_string(worlds);
  r.config["window_length"] = std::to_string(shape.length);
  r.config["tick_period"] = std::to_string(shape.tick_period);
  r.config["submission_slots"] = std::to_string(shape.submission_slots);
  {
    // Warms allocators; not measured.
    Result warm;
    replay(0, warm, nullptr);
    r.Absorb(warm);
  }
  if (!args.trace) {
    auto setup = [&] { BuildWindowMarket(args, 0, nullptr); };
    MeasureSetups(r, setup);
    Measure(worlds, args.seconds, true, r,
            [&](std::size_t u) { replay(u, r, nullptr); });
    MeasureSetups(r, setup);
    r.digest = combined_digest(r);
    return;
  }
  Result plain;
  for (int u = 0; u < worlds; ++u) replay(u, plain, nullptr);
  r.untraced_best_ms = plain.SumBestMs();
  r.Absorb(plain);
  for (int u = 0; u < worlds; ++u) replay(u, r, &r.layers);
  r.traced_periods = worlds;
  r.traced_wall_ms = r.measure_s * 1e3;
  r.digest = combined_digest(r);
  if (r.digest != combined_digest(plain)) {
    r.Fail("traced and untraced passes produced different outputs");
  }
}

// --------------------------------------------------------- planet-churn --

constexpr int kChurnScriptedCrashes = 2;

pm::scenario::ScenarioSpec PlanetChurnSpec(const Args& args) {
  using pm::scenario::EventKind;
  using pm::scenario::ScenarioEvent;
  pm::scenario::ScenarioSpec spec;
  spec.name = "planet-churn";
  spec.description = "marketbench: everything on, writes between epochs";
  const double lo[4] = {0.20, 0.30, 0.45, 0.60};
  const double hi[4] = {0.50, 0.65, 0.80, 0.92};
  for (int k = 0; k < 4; ++k) {
    ShardSpec shard;
    shard.name = "region-" + std::to_string(k);
    shard.workload.num_teams = args.smoke ? 60 : 1000;
    shard.workload.num_clusters = args.smoke ? 8 : 40;
    shard.workload.min_target_utilization = lo[k];
    shard.workload.max_target_utilization = hi[k];
    shard.market = ShardMarketConfig();
    shard.market.settlement.move_cost_weights =
        pm::cluster::TaskShape{0.5, 0.02, 0.1};
    shard.market.settlement.bill_moves = true;
    shard.market.outcome_feedback = true;
    spec.shards.push_back(shard);
  }
  FederationConfig& fed = spec.federation;
  fed.economy.treasury = true;
  fed.economy.arbitrage.enabled = true;
  fed.economy.rebalance.enabled = true;
  fed.supervisor.enabled = true;
  fed.supervisor.quarantine_streak = 2;
  fed.supervisor.backoff_base = 1;
  fed.telemetry.enabled = true;
  fed.telemetry.watchdog.recording_rules = true;
  fed.telemetry.watchdog.alerts = true;
  const int scale = args.smoke ? 1 : 10;
  auto event = [](EventKind kind, int epoch, int duration, std::size_t shard,
                  double magnitude, int count, pm::Money budget) {
    return ScenarioEvent{kind, epoch, duration, shard, magnitude, count,
                         budget};
  };
  spec.events = {
      event(EventKind::kChurnWave, 1, 3, 0, 10.0 * scale, 0, pm::Money()),
      event(EventKind::kChurnWave, 3, 3, 1, 10.0 * scale, 0, pm::Money()),
      event(EventKind::kPriceWar, 1, 3, 3, 8.0, 4,
            pm::Money::FromDollars(150000)),
      event(EventKind::kFlashCrowd, 2, 2, 0, 40.0, 10,
            pm::Money::FromDollars(60000)),
      // Two consecutive hard crashes of shard 2: both contained (restore
      // each time), then a one-epoch quarantine and a probation rejoin.
      event(EventKind::kShardCrash, 3, kChurnScriptedCrashes, 2, 0.0, 0,
            pm::Money()),
      event(EventKind::kCapacityExpansion, 4, 1, 3, 1.0, 20, pm::Money()),
  };
  spec.default_epochs = 8;
  // Only the always-on invariants (treasury conservation and the refund
  // identity) are asserted; the shock SLOs are calibrated for the
  // library's small worlds.
  spec.slo = pm::scenario::SloPolicy{};
  spec.slo.min_epochs = 1;
  return spec;
}

void CheckScenario(const pm::scenario::ScenarioMetrics& metrics,
                   const FederatedExchange& fed, Result& r) {
  for (const FederationReport& report : fed.History()) {
    CheckShardReports(report, true, r);
  }
  // Scripted crashes are not failures; containment failing is.
  r.attempted += 1;
  if (metrics.shard_failures != kChurnScriptedCrashes ||
      metrics.checkpoint_restores != kChurnScriptedCrashes) {
    r.Fail("contained failures/restores " +
           std::to_string(metrics.shard_failures) + "/" +
           std::to_string(metrics.checkpoint_restores) + " != scripted " +
           std::to_string(kChurnScriptedCrashes));
  }
  r.attempted += 1;
  if (!metrics.slo_pass) {
    std::string failed_slos;
    for (const pm::scenario::SloResult& slo : metrics.slos) {
      if (!slo.pass) failed_slos += " " + slo.name + " (" + slo.detail + ")";
    }
    r.Fail("always-on invariants failed:" + failed_slos);
  }
}

void RunPlanetChurn(const Args& args, std::size_t pool, Result& r) {
  const pm::scenario::ScenarioSpec spec = PlanetChurnSpec(args);
  pm::scenario::RunnerConfig runner_config;
  runner_config.seed = DeriveSeed(args.seed, 5);
  runner_config.num_threads = pool;
  // One replay = a fresh runner from the same seed and a whole run of
  // spec.default_epochs periods. The unit's digest is the run's
  // ScenarioMetrics::ToJson(), which every replay must reproduce.
  auto replay = [&](const pm::scenario::ScenarioSpec& s, Result& into,
                    Layers* layers) {
    const auto t0 = Clock::now();
    pm::scenario::ScenarioRunner runner(s, runner_config);
    if (layers != nullptr) layers->Add("federation.construct_ms", MsSince(t0));
    const double cpu0 = CpuSeconds();
    const auto t1 = Clock::now();
    pm::scenario::ScenarioMetrics metrics;
    try {
      metrics = runner.Run();
    } catch (const std::exception& e) {
      ++into.attempted;
      into.Fail(std::string("uncontained throw: ") + e.what());
      return;
    }
    const double ms = MsSince(t1);
    const double cpu = CpuSeconds() - cpu0;
    CheckScenario(metrics, runner.exchange(), into);
    Digest digest;
    digest.Str(metrics.ToJson());
    into.Replay(0, runner.Epochs(), ms, cpu, {}, digest.Hex());
    if (layers != nullptr) {
      for (const FederationReport& report : runner.exchange().History()) {
        AddReportCounts(report, *layers);
      }
      ProbeMarkets(runner.exchange(), *layers);
      ProbeTelemetry(runner.exchange(), *layers, into);
      layers->Add("scenario.events_fired",
                  static_cast<double>(metrics.series.back().events_fired));
      layers->Add("scenario.churn_jobs_started",
                  static_cast<double>(metrics.series.back().churn_started));
    }
  };
  r.config["epochs_per_run"] = std::to_string(spec.default_epochs);
  if (!args.trace) {
    auto setup = [&] {
      pm::scenario::ScenarioRunner runner(spec, runner_config);
    };
    MeasureSetups(r, setup);
    Measure(1, args.seconds, false, r,
            [&](std::size_t) { replay(spec, r, nullptr); });
    MeasureSetups(r, setup);
    r.digest = r.units.empty() ? "" : r.units.front().digest;
    return;
  }
  {
    // The process's first scenario run pays its cold start; keep it out
    // of the traced/untraced comparison.
    Result warm;
    replay(spec, warm, nullptr);
    r.Absorb(warm);
  }
  Result plain;
  replay(spec, plain, nullptr);
  r.untraced_best_ms = plain.SumBestMs();
  r.Absorb(plain);
  pm::scenario::ScenarioSpec traced = spec;
  traced.federation.telemetry.profiler.wall_clock = true;
  ProbeWorldGeneration(spec.shards, runner_config.seed, r.layers);
  replay(traced, r, &r.layers);
  r.traced_periods = spec.default_epochs;
  r.traced_wall_ms = r.measure_s * 1e3;
  r.digest = r.units.empty() ? "" : r.units.front().digest;
  if (plain.units.empty() || r.digest != plain.units.front().digest) {
    r.Fail("traced and untraced passes produced different outputs");
  }
}

// ------------------------------------------------------------- output --

void PrintResult(const Args& args, const Result& r, std::size_t nproc,
                 std::size_t pool) {
  std::ostringstream os;
  os << "{\"workload\": " << JsonQuote(args.workload)
     << ", \"seed\": " << args.seed
     << ", \"scale\": " << JsonQuote(args.smoke ? "smoke" : "full")
     << ", \"trace\": " << (args.trace ? 1 : 0);
  os << ", \"stamp\": {\"nproc\": " << nproc
     << ", \"cpu_model\": " << JsonQuote(CpuModel())
     << ", \"compiler\": " << JsonQuote(MB_COMPILER)
     << ", \"build_type\": " << JsonQuote(MB_BUILD_TYPE)
     << ", \"cxx_flags\": " << JsonQuote(MB_CXX_FLAGS)
     << ", \"pool\": " << pool;
  for (const auto& [key, value] : r.config) {
    os << ", " << JsonQuote(key) << ": " << JsonQuote(value);
  }
  os << "}";
  os << ", \"setup_s\": " << JsonArray(r.setup_s) << ", \"units\": [";
  for (std::size_t i = 0; i < r.units.size(); ++i) {
    const UnitBest& u = r.units[i];
    os << (i ? ", " : "") << "{\"periods\": " << u.periods
       << ", \"replays\": " << u.replays
       << ", \"best_ms\": " << JsonNumber(u.best_ms)
       << ", \"best_cpu_s\": " << JsonNumber(u.best_cpu_s)
       << ", \"best_split_ms\": " << JsonArray(u.best_split_ms) << "}";
  }
  os << "], \"measure_s\": " << JsonNumber(r.measure_s)
     << ", \"peak_rss_mb\": "
     << JsonNumber(r.peak_rss_mb > 0.0 ? r.peak_rss_mb : PeakRssMb())
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    os << (i ? ", " : "") << JsonQuote(r.failures[i]);
  }
  os << "], \"digest\": " << JsonQuote(r.digest);
  if (args.trace) {
    os << ", \"traced_periods\": " << r.traced_periods
       << ", \"trace_first_epoch\": " << r.trace_first_epoch
       << ", \"untraced_best_ms\": " << JsonNumber(r.untraced_best_ms)
       << ", \"traced_wall_ms\": " << JsonNumber(r.traced_wall_ms)
       << ", \"layers\": {";
    bool first = true;
    for (const auto& [name, value] : r.layers.sums()) {
      os << (first ? "" : ", ") << JsonQuote(name) << ": " << JsonNumber(value);
      first = false;
    }
    os << "}";
  }
  os << "}";
  std::printf("%s\n", os.str().c_str());
}

bool WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  out << data;
  return static_cast<bool>(out);
}

int Usage() {
  std::fprintf(stderr,
               "usage: marketbench --workload "
               "{big-shard|bid-window|planet-churn|planet-pipelined} "
               "--seed N --seconds S [--trace 0|1] [--scale full|smoke] "
               "[--trace-dir DIR]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--scale" && has_value) {
      const std::string scale = argv[++i];
      if (scale != "full" && scale != "smoke") return Usage();
      args.smoke = scale == "smoke";
    } else if (arg == "--trace-dir" && has_value) {
      args.trace_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (std::string(MB_BUILD_TYPE) != "Release" || MB_SANITIZED ||
      std::strstr(MB_CXX_FLAGS, "-fsanitize") != nullptr
#ifndef NDEBUG
      || true
#endif
  ) {
    std::fprintf(stderr,
                 "marketbench: refusing to time a %s build (flags '%s'); "
                 "rebuild with -DCMAKE_BUILD_TYPE=Release, no sanitizers\n",
                 MB_BUILD_TYPE, MB_CXX_FLAGS);
    return 65;
  }
  const std::size_t nproc = UsableCpus();
  Result r;
  std::size_t pool = 0;
  try {
    if (args.workload == "big-shard") {
      r.config["shape"] = args.smoke ? "1 x 400 teams x 20 clusters"
                                     : "1 x 10000 teams x 200 clusters";
      RunFederationWorkload(BigShard(args), args, 1, r);
    } else if (args.workload == "bid-window") {
      r.config["shape"] = args.smoke ? "200 teams x 8 clusters"
                                     : "10000 teams x 34 clusters";
      RunBidWindow(args, args.smoke ? 2 : 16, r);
    } else if (args.workload == "planet-churn") {
      pool = nproc;
      r.config["shape"] = args.smoke ? "4 x 60 teams x 8 clusters"
                                     : "4 x 1000 teams x 40 clusters";
      RunPlanetChurn(args, pool, r);
    } else if (args.workload == "planet-pipelined") {
      pool = std::max<std::size_t>(1, nproc - 1);
      r.config["shape"] = args.smoke ? "4 x 60 teams x 8 clusters"
                                     : "16 x 1000 teams x 50 clusters";
      RunFederationWorkload(PlanetPipelined(args, pool), args, 2, r);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    ++r.attempted;
    r.Fail(std::string("uncontained throw: ") + e.what());
  }
  if (args.trace) {
    const std::string stem =
        args.trace_dir + "/" + args.workload + "-seed" +
        std::to_string(args.seed);
    if (!r.program_trace.empty() &&
        !WriteFile(stem + ".program.trace.json", r.program_trace)) {
      std::fprintf(stderr, "marketbench: cannot write traces under %s\n",
                   args.trace_dir.c_str());
      return 74;
    }
  }
  PrintResult(args, r, nproc, pool);
  return 0;
}
