// Tests for FederationConfig::pipelined (federated_exchange.cpp's
// RunEpochs window at depth 2): the overlap must be invisible —
// pipelined epochs byte-identical to a RunEpoch loop on every rendered
// report and on the telemetry plane's deterministic metrics JSON, across
// thread counts — and every config whose barrier writes shard state
// (epoch supervision, the economy, fault injection) must run at depth 1
// rather than diverge. Bids queued before the run are routed while the
// first epoch opens, so they do not stop the window from widening.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "federation/federated_exchange.h"
#include "federation/report.h"
#include "telemetry/telemetry.h"

namespace pm::federation {
namespace {

FederationConfig BaseConfig(bool pipelined, std::size_t num_threads) {
  FederationConfig config;
  config.seed = 20090425;
  config.num_threads = num_threads;
  config.pipelined = pipelined;
  config.telemetry.enabled = true;
  return config;
}

std::vector<ShardSpec> BaseShards(std::size_t shards, int teams) {
  std::vector<ShardSpec> specs;
  for (std::size_t k = 0; k < shards; ++k) {
    ShardSpec spec;
    spec.name = "shard-" + std::to_string(k);
    spec.workload.num_teams = teams;
    spec.workload.num_clusters = 4;
    spec.market.auction.alpha = 0.4;
    spec.market.auction.delta = 0.08;
    spec.market.auction.max_rounds = 30000;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string MetricsOf(const FederatedExchange& fed) {
  return fed.telemetry() != nullptr ? fed.telemetry()->MetricsJson() : "";
}

/// Every epoch's rendered report, concatenated: any divergence in any
/// epoch (prices, awards, spread, health) shows up as a string diff.
std::string RenderedHistory(const FederatedExchange& fed) {
  std::string out;
  for (const FederationReport& report : fed.History()) {
    out += RenderFederationSummary(report);
    out += '\n';
  }
  return out;
}

constexpr std::size_t kShards = 4;
constexpr int kTeams = 25;
constexpr int kEpochs = 3;

TEST(PipelinedFederation, MatchesSerialLoopByteForByte) {
  // The pre-PR path: one RunEpoch call per epoch, no pipeline.
  FederatedExchange loop(BaseShards(kShards, kTeams),
                         BaseConfig(false, 2));
  for (int e = 0; e < kEpochs; ++e) loop.RunEpoch();

  // RunEpochs with the gate off must be the same loop.
  FederatedExchange off(BaseShards(kShards, kTeams), BaseConfig(false, 2));
  off.RunEpochs(kEpochs);
  EXPECT_EQ(off.EpochCount(), kEpochs);
  EXPECT_EQ(RenderedHistory(off), RenderedHistory(loop));
  EXPECT_EQ(MetricsOf(off), MetricsOf(loop));

  // The pipelined overlap must be invisible in every output.
  FederatedExchange on(BaseShards(kShards, kTeams), BaseConfig(true, 2));
  on.RunEpochs(kEpochs);
  EXPECT_EQ(on.EpochCount(), kEpochs);
  EXPECT_EQ(RenderedHistory(on), RenderedHistory(loop));
  EXPECT_EQ(MetricsOf(on), MetricsOf(loop));
}

TEST(PipelinedFederation, IdenticalAcrossThreadCounts) {
  std::string first_history;
  std::string first_metrics;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{5}}) {
    FederatedExchange fed(BaseShards(kShards, kTeams),
                          BaseConfig(true, threads));
    fed.RunEpochs(kEpochs);
    if (first_history.empty()) {
      first_history = RenderedHistory(fed);
      first_metrics = MetricsOf(fed);
    } else {
      EXPECT_EQ(RenderedHistory(fed), first_history) << threads;
      EXPECT_EQ(MetricsOf(fed), first_metrics) << threads;
    }
  }
}

TEST(PipelinedFederation, ZeroAndSingleEpochCalls) {
  FederatedExchange fed(BaseShards(2, 10), BaseConfig(true, 2));
  fed.RunEpochs(0);
  EXPECT_EQ(fed.EpochCount(), 0);
  fed.RunEpochs(1);  // n == 1 has nothing to overlap: depth 1.
  EXPECT_EQ(fed.EpochCount(), 1);
  fed.RunEpochs(2);
  EXPECT_EQ(fed.EpochCount(), 3);
}

TEST(PipelinedFederation, SupervisedConfigFallsBackToSerial) {
  FederationConfig supervised = BaseConfig(false, 2);
  supervised.supervisor.enabled = true;
  FederatedExchange loop(BaseShards(kShards, kTeams), supervised);
  for (int e = 0; e < kEpochs; ++e) loop.RunEpoch();

  FederationConfig pipelined = supervised;
  pipelined.pipelined = true;
  FederatedExchange fed(BaseShards(kShards, kTeams), pipelined);
  fed.RunEpochs(kEpochs);  // Must refuse to overlap checkpointed epochs.
  EXPECT_EQ(RenderedHistory(fed), RenderedHistory(loop));
  EXPECT_EQ(MetricsOf(fed), MetricsOf(loop));
}

TEST(PipelinedFederation, PendingFederatedBidsRouteAtFirstEpochThenPipeline) {
  auto submit = [](FederatedExchange& fed) {
    fed.EndowFederatedTeam("global", Money::FromDollars(100000));
    FederatedBid bid;
    bid.team = "global";
    bid.tag = "t0";
    bid.quantity = cluster::TaskShape{4.0, 16.0, 1.0};
    bid.limit = 5000.0;
    fed.SubmitFederatedBid(bid);
  };
  FederatedExchange loop(BaseShards(kShards, kTeams),
                         BaseConfig(false, 2));
  submit(loop);
  for (int e = 0; e < kEpochs; ++e) loop.RunEpoch();

  // The wall channel shows the window depth and never touches the
  // deterministic outputs compared below.
  FederationConfig traced = BaseConfig(true, 2);
  traced.telemetry.profiler.wall_clock = true;
  FederatedExchange fed(BaseShards(kShards, kTeams), traced);
  submit(fed);
  // The routing pass writes shard state, so it runs while epoch 0 opens,
  // before any shard task is posted; the burst then runs at depth 2.
  fed.RunEpochs(kEpochs);
  EXPECT_EQ(RenderedHistory(fed), RenderedHistory(loop));
  EXPECT_EQ(MetricsOf(fed), MetricsOf(loop));
  const std::string trace = fed.telemetry()->profiler()->ChromeTraceJson();
  EXPECT_NE(trace.find("\"name\": \"route\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\": \"window-wait\""), std::string::npos);
}

TEST(PipelinedFederation, InjectedFaultsFallBackAndPropagate) {
  // Unsupervised injected failure: a RunEpoch loop commits the epochs
  // before the failing one and throws. RunEpochs must do exactly that.
  FederatedExchange loop(BaseShards(kShards, kTeams),
                         BaseConfig(false, 2));
  loop.RunEpoch();
  loop.InjectShardFailure(1);
  EXPECT_THROW(loop.RunEpoch(), std::exception);
  const int committed = loop.EpochCount();

  FederatedExchange fed(BaseShards(kShards, kTeams), BaseConfig(true, 2));
  fed.RunEpochs(1);
  fed.InjectShardFailure(1);
  EXPECT_THROW(fed.RunEpochs(kEpochs), std::exception);
  EXPECT_EQ(fed.EpochCount(), committed);
  EXPECT_EQ(RenderedHistory(fed), RenderedHistory(loop));
}

TEST(PipelinedFederation, ResumesPipeliningAfterPendingDrains) {
  // Epoch 1 carries a routed bid (a single epoch: depth 1); the later
  // burst overlaps again — and must still match the RunEpoch loop.
  auto submit = [](FederatedExchange& fed) {
    fed.EndowFederatedTeam("global", Money::FromDollars(100000));
    FederatedBid bid;
    bid.team = "global";
    bid.tag = "t0";
    bid.quantity = cluster::TaskShape{4.0, 16.0, 1.0};
    bid.limit = 5000.0;
    fed.SubmitFederatedBid(bid);
  };
  FederatedExchange loop(BaseShards(kShards, kTeams),
                         BaseConfig(false, 2));
  submit(loop);
  for (int e = 0; e < 4; ++e) loop.RunEpoch();

  FederatedExchange fed(BaseShards(kShards, kTeams), BaseConfig(true, 2));
  submit(fed);
  fed.RunEpochs(1);   // Depth 1: nothing to overlap.
  fed.RunEpochs(3);   // Depth 2.
  EXPECT_EQ(fed.EpochCount(), 4);
  EXPECT_EQ(RenderedHistory(fed), RenderedHistory(loop));
  EXPECT_EQ(MetricsOf(fed), MetricsOf(loop));
}

}  // namespace
}  // namespace pm::federation
