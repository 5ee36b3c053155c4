#include "server/bn_server.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace turbo::server {
namespace {

constexpr BehaviorType kIp = BehaviorType::kIpv4;
const int kIpIdx = EdgeTypeIndex(kIp);

BnServerConfig SmallConfig() {
  BnServerConfig cfg;
  cfg.bn.windows = {kHour, kDay};
  cfg.num_users = 100;
  cfg.snapshot_refresh = kHour;
  return cfg;
}

BehaviorLog L(UserId u, ValueId v, SimTime t) {
  return BehaviorLog{u, kIp, v, t};
}

TEST(BnServerTest, WindowJobsRunOnSchedule) {
  BnServer server(SmallConfig());
  server.AdvanceTo(3 * kHour);
  // 1-hour window ran 3 times; 1-day window not yet.
  EXPECT_EQ(server.jobs_run(), 3u);
  server.AdvanceTo(kDay);
  // 24 hourly + 1 daily.
  EXPECT_EQ(server.jobs_run(), 25u);
}

TEST(BnServerTest, IngestedCoOccurrenceBecomesEdge) {
  BnServer server(SmallConfig());
  server.Ingest(L(1, 42, 10 * kMinute));
  server.Ingest(L(2, 42, 20 * kMinute));
  server.AdvanceTo(kHour);
  EXPECT_GT(server.edges().Weight(kIpIdx, 1, 2), 0.0f);
}

TEST(BnServerTest, ShorterWindowJobRunsBeforeLarger) {
  BnServer server(SmallConfig());
  server.Ingest(L(1, 42, 10 * kMinute));
  server.Ingest(L(2, 42, 20 * kMinute));
  server.AdvanceTo(kHour);
  const float after_hourly = server.edges().Weight(kIpIdx, 1, 2);
  EXPECT_FLOAT_EQ(after_hourly, 0.5f);  // hourly job only
  server.AdvanceTo(kDay);
  // Daily job adds its own 1/2.
  EXPECT_FLOAT_EQ(server.edges().Weight(kIpIdx, 1, 2), 1.0f);
}

TEST(BnServerTest, SamplingServesSnapshot) {
  BnServer server(SmallConfig());
  server.Ingest(L(1, 42, 10 * kMinute));
  server.Ingest(L(2, 42, 20 * kMinute));
  server.AdvanceTo(kHour);
  auto sg = server.SampleSubgraph(1);
  EXPECT_EQ(sg.nodes[0], 1u);
  EXPECT_EQ(sg.nodes.size(), 2u);
  EXPECT_GE(sg.NumEdges(), 1u);
}

TEST(BnServerTest, SnapshotIsRefreshedOnCadence) {
  BnServerConfig cfg = SmallConfig();
  cfg.snapshot_refresh = 2 * kHour;
  BnServer server(cfg);
  server.Ingest(L(1, 42, 10 * kMinute));
  server.Ingest(L(2, 42, 20 * kMinute));
  server.AdvanceTo(kHour);  // first snapshot
  // New logs for another pair; within refresh interval the snapshot is
  // stale.
  server.Ingest(L(3, 77, kHour + 10 * kMinute));
  server.Ingest(L(4, 77, kHour + 20 * kMinute));
  server.AdvanceTo(2 * kHour);
  auto stale = server.SampleSubgraph(3);
  EXPECT_EQ(stale.nodes.size(), 1u);  // not yet visible
  server.AdvanceTo(3 * kHour + 1);    // past refresh cadence
  auto fresh = server.SampleSubgraph(3);
  EXPECT_EQ(fresh.nodes.size(), 2u);
}

TEST(BnServerTest, TtlSweepExpiresOldEdges) {
  BnServerConfig cfg = SmallConfig();
  cfg.bn.edge_ttl = 5 * kDay;
  BnServer server(cfg);
  server.Ingest(L(1, 42, 10 * kMinute));
  server.Ingest(L(2, 42, 20 * kMinute));
  server.AdvanceTo(kDay);
  EXPECT_GT(server.edges().Weight(kIpIdx, 1, 2), 0.0f);
  server.AdvanceTo(10 * kDay);
  EXPECT_FLOAT_EQ(server.edges().Weight(kIpIdx, 1, 2), 0.0f);
  EXPECT_GT(server.edges_expired(), 0u);
}

TEST(BnServerTest, IngestLagGaugeTracksSlowestWindowFrontier) {
  obs::MetricsRegistry metrics;
  BnServerConfig cfg = SmallConfig();
  cfg.metrics = &metrics;
  BnServer server(cfg);
  auto* lag = metrics.GetGauge("bn_ingest_lag_s");
  server.AdvanceTo(kDay);
  // Both the hourly and the daily frontier sit exactly at the clock.
  EXPECT_DOUBLE_EQ(lag->value(), 0.0);
  server.AdvanceTo(kDay + 30 * kMinute);
  // The daily job won't run again until t = 2d: the slowest frontier
  // trails the clock by 30 minutes.
  EXPECT_DOUBLE_EQ(lag->value(), static_cast<double>(30 * kMinute));
}

TEST(BnServerTest, CatchUpAdvanceMatchesSteadyAdvance) {
  // Advancing in one big jump after an idle gap must replay the exact
  // job schedule of hour-by-hour advancement: same weights, bit for bit,
  // for the serial and the sharded engine.
  for (int threads : {1, 0}) {  // 1 = serial shards, 0 = pooled shards
    BnServerConfig cfg = SmallConfig();
    cfg.window_job_threads = threads;
    BnServer steady(cfg), catchup(cfg);
    BehaviorLogList logs;
    for (int i = 0; i < 200; ++i) {
      logs.push_back(L(static_cast<UserId>(i % 40), 1 + i % 7,
                       (i * 17 * kMinute) % (2 * kDay)));
    }
    steady.IngestBatch(logs);
    catchup.IngestBatch(logs);
    for (SimTime t = kHour; t <= 2 * kDay; t += kHour) steady.AdvanceTo(t);
    catchup.AdvanceTo(2 * kDay);
    EXPECT_EQ(steady.jobs_run(), catchup.jobs_run());
    // Hour-by-hour advancing publishes more snapshot versions than one
    // jump, so the servers match at the edge level, not the server level.
    EXPECT_EQ(steady.edges().FirstDifference(catchup.edges()), "");
  }
}

/// A server that ingested `logs`, then advanced through `stops` in order.
std::unique_ptr<BnServer> Drive(const BnServerConfig& cfg,
                                const BehaviorLogList& logs,
                                const std::vector<SimTime>& stops) {
  auto server = std::make_unique<BnServer>(cfg);
  server->IngestBatch(logs);
  for (SimTime t : stops) server->AdvanceTo(t);
  return server;
}

TEST(BnServerOracleTest, IdenticalServersHaveNoDifference) {
  const BehaviorLogList logs = {L(1, 42, 10 * kMinute),
                                L(2, 42, 20 * kMinute), L(3, 42, kDay)};
  const auto a = Drive(SmallConfig(), logs, {2 * kDay});
  EXPECT_EQ(a->FirstDifference(*Drive(SmallConfig(), logs, {2 * kDay})), "");
}

TEST(BnServerOracleTest, EverySingleChangeIsNamed) {
  const BehaviorLogList logs = {L(1, 42, 10 * kMinute),
                                L(2, 42, 20 * kMinute)};
  BnServerConfig more_windows = SmallConfig(), short_ttl = SmallConfig();
  more_windows.bn.windows = {kHour, 2 * kHour, kDay};
  short_ttl.bn.edge_ttl = 5 * kDay;
  BehaviorLogList extra_log = logs, other_pair = logs;
  extra_log.push_back(L(5, 99, 30 * kMinute));
  other_pair[1].uid = 3;
  const std::pair<std::unique_ptr<BnServer>, const char*> cases[] = {
      {Drive(SmallConfig(), logs, {10 * kDay + kMinute}), "clock"},
      {Drive(more_windows, logs, {10 * kDay}), "jobs_run"},
      {Drive(short_ttl, logs, {10 * kDay}), "edges_expired"},
      {Drive(SmallConfig(), extra_log, {10 * kDay}), "2 vs 3 logs"},
      // One more publish on the way to the same clock.
      {Drive(SmallConfig(), logs, {kDay, 10 * kDay}), "snapshot version"},
      {Drive(SmallConfig(), other_pair, {10 * kDay}), "edges: "},
  };
  const auto base = Drive(SmallConfig(), logs, {10 * kDay});
  for (const auto& [other, named] : cases) {
    const std::string diff = base->FirstDifference(*other);
    EXPECT_NE(diff.find(named), std::string::npos) << diff;
  }
}

TEST(BnServerDeathTest, IngestNegativeTimestampAborts) {
  BnServer server(SmallConfig());
  EXPECT_DEATH(server.Ingest(L(1, 42, -5)), "negative timestamp");
}

TEST(BnServerDeathTest, SamplingBeforeAdvanceAborts) {
  BnServer server(SmallConfig());
  EXPECT_DEATH(server.SampleSubgraph(1), "AdvanceTo");
}

TEST(BnServerDeathTest, ClockCannotGoBackwards) {
  BnServer server(SmallConfig());
  server.AdvanceTo(kHour);
  EXPECT_DEATH(server.AdvanceTo(kHour - 1), "CHECK failed");
}

TEST(BnServerDeathTest, IngestOutOfRangeUidAborts) {
  BnServer server(SmallConfig());
  EXPECT_DEATH(server.Ingest(L(100, 1, 0)), "CHECK failed");
}

}  // namespace
}  // namespace turbo::server
