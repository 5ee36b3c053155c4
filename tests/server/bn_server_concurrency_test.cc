// Concurrency contract of the BN server's snapshot read path: any number
// of sampler threads read the last published snapshot lock-free while the
// writer runs window jobs, TTL expiry, and snapshot builds. These tests
// are meant to run under -fsanitize=thread (see the sanitizers CI
// workflow and .tsan-suppressions for a libstdc++-12 false positive):
// a torn publish or a reader touching writer state would be
// reported as a data race there, while the assertions below check the
// versioned-consistency contract — every sampled subgraph matches the
// graph content of the exact snapshot version it reports.
#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/bn_server.h"

namespace turbo::server {
namespace {

constexpr BehaviorType kIp = BehaviorType::kIpv4;

BehaviorLog L(UserId u, ValueId v, SimTime t) {
  return BehaviorLog{u, kIp, v, t};
}

// Writer grows a star around user 0 by one leaf per snapshot version;
// readers continuously sample user 0's computation subgraph and check it
// against the expected graph of the version it was sampled from.
TEST(BnServerConcurrencyTest, ReadersSampleConsistentlyWhileWriterAdvances) {
  constexpr int kSteps = 40;    // published snapshot versions
  constexpr int kReaders = 4;
  BnServerConfig cfg;
  cfg.bn.windows = {kHour};
  cfg.num_users = kSteps + 2;
  cfg.snapshot_refresh = kHour;
  cfg.sampler.num_hops = 2;
  cfg.sampler.fanout = kSteps + 2;  // never truncate the star
  BnServer server(cfg);

  // expected_nodes[v] = subgraph size of user 0 under snapshot version v;
  // written by the writer strictly before version v is published, so any
  // reader that observes v also observes its expectation.
  std::array<std::atomic<size_t>, kSteps + 1> expected_nodes{};

  // Version 1: empty graph (no window job has seen any logs yet).
  expected_nodes[1].store(1);
  server.AdvanceTo(1);  // publishes version 1 at t=1

  std::atomic<bool> stop{false};
  std::atomic<size_t> samples_taken{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&server, &expected_nodes, &stop, &samples_taken] {
      while (!stop.load(std::memory_order_acquire)) {
        bn::Subgraph sg = server.SampleSubgraph(0);
        const uint64_t v = sg.snapshot_version;
        ASSERT_GE(v, 1u);
        ASSERT_LE(v, static_cast<uint64_t>(kSteps));
        // Content matches the version's expected star graph.
        EXPECT_EQ(sg.nodes.size(), expected_nodes[v].load());
        EXPECT_EQ(sg.NumEdges(), sg.nodes.size() - 1);  // star
        // Structural invariants: targets first, local map is the exact
        // inverse of the node list, edge endpoints in range.
        EXPECT_EQ(sg.nodes[0], 0u);
        EXPECT_EQ(sg.num_targets, 1u);
        ASSERT_EQ(sg.local.size(), sg.nodes.size());
        for (size_t i = 0; i < sg.nodes.size(); ++i) {
          auto it = sg.local.find(sg.nodes[i]);
          ASSERT_NE(it, sg.local.end());
          EXPECT_EQ(it->second, static_cast<int>(i));
        }
        for (int t = 0; t < kNumEdgeTypes; ++t) {
          for (const auto& e : sg.edges[t]) {
            ASSERT_LT(e.row, sg.nodes.size());
            ASSERT_LT(e.col, sg.nodes.size());
          }
        }
        samples_taken.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: each step ingests one new co-occurrence (user 0 with a fresh
  // leaf) inside the next hourly epoch, then advances past that epoch so
  // the window job builds the edge and the refresh publishes version
  // step. Ingestion, TTL, and the snapshot build all run concurrently
  // with the samplers above.
  for (int step = 2; step <= kSteps; ++step) {
    const SimTime epoch_start = (step - 1) * kHour;
    const UserId leaf = static_cast<UserId>(step - 1);
    server.Ingest(L(0, 100 + step, epoch_start + 10 * kMinute));
    server.Ingest(L(leaf, 100 + step, epoch_start + 20 * kMinute));
    expected_nodes[step].store(static_cast<size_t>(step));
    server.AdvanceTo(step * kHour);
    ASSERT_EQ(server.snapshot_version(), static_cast<uint64_t>(step));
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(samples_taken.load(), 0u);
}

// Sharded window jobs run on a worker pool inside AdvanceTo while
// sampler threads read published snapshots: the shard workers touch the
// LogStore's lazily-sorted indexes and private delta buffers, and none
// of that may race with the lock-free read path. Run under
// -fsanitize=thread this is the ingest-vs-sample race check for the
// parallel engine; the assertions double as a determinism check against
// a serially-built reference.
TEST(BnServerConcurrencyTest, SampleWhileShardedJobsRun) {
  constexpr int kReaders = 4;
  constexpr int kUsers = 64;
  BnServerConfig cfg;
  cfg.bn.windows = {kHour, 2 * kHour};
  cfg.bn.window_job_shards = 8;
  cfg.window_job_threads = 4;  // pooled shard workers
  cfg.num_users = kUsers;
  cfg.snapshot_refresh = kHour;
  BnServer server(cfg);
  server.AdvanceTo(1);  // publish an (empty) snapshot for the readers

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&server, &stop, r] {
      while (!stop.load(std::memory_order_acquire)) {
        bn::Subgraph sg =
            server.SampleSubgraph(static_cast<UserId>(r % kUsers));
        ASSERT_GE(sg.snapshot_version, 1u);
        ASSERT_GE(sg.nodes.size(), 1u);
      }
    });
  }

  // Writer: dense co-occurring traffic so every hourly job has work for
  // several shards, advanced hour by hour while the readers sample.
  BehaviorLogList all_logs;
  for (int hour = 0; hour < 24; ++hour) {
    BehaviorLogList logs;
    for (int i = 0; i < 120; ++i) {
      logs.push_back(L(static_cast<UserId>((hour * 7 + i) % kUsers),
                       1 + i % 13, hour * kHour + 1 + i * 20));
    }
    server.IngestBatch(logs);
    all_logs.insert(all_logs.end(), logs.begin(), logs.end());
    server.AdvanceTo((hour + 1) * kHour);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // The pooled run equals an offline serial build over the same logs.
  storage::EdgeStore reference;
  bn::BnConfig serial_cfg = cfg.bn;
  serial_cfg.window_job_shards = 1;
  bn::BnBuilder(serial_cfg, &reference).BuildFromLogs(all_logs);
  EXPECT_EQ(server.edges().FirstDifference(reference), "");
}

// A reader-held view pins its snapshot version: publishing newer versions
// must neither change nor invalidate what the old view serves (RCU-style
// reclamation — the snapshot dies with its last reference, not at
// publish time).
TEST(BnServerConcurrencyTest, HeldViewPinsItsSnapshotAcrossPublishes) {
  BnServerConfig cfg;
  cfg.bn.windows = {kHour};
  cfg.num_users = 16;
  cfg.snapshot_refresh = kHour;
  BnServer server(cfg);
  server.Ingest(L(1, 42, 10 * kMinute));
  server.Ingest(L(2, 42, 20 * kMinute));
  server.AdvanceTo(kHour);

  bn::GraphView pinned = server.view();
  const uint64_t pinned_version = pinned.version();
  const size_t pinned_edges = pinned.TotalEdges();
  EXPECT_EQ(pinned_version, 1u);

  // Publish several newer versions with more edges.
  for (int step = 2; step <= 5; ++step) {
    const SimTime epoch_start = (step - 1) * kHour;
    server.Ingest(L(3, 100 + step, epoch_start + 10 * kMinute));
    server.Ingest(L(static_cast<UserId>(step + 3), 100 + step,
                    epoch_start + 20 * kMinute));
    server.AdvanceTo(step * kHour);
  }
  EXPECT_EQ(server.snapshot_version(), 5u);
  EXPECT_GT(server.view().TotalEdges(), pinned_edges);

  // The pinned view still serves the old version's content.
  EXPECT_EQ(pinned.version(), pinned_version);
  EXPECT_EQ(pinned.TotalEdges(), pinned_edges);
  bn::SubgraphSampler sampler(pinned, cfg.sampler);
  auto sg = sampler.SampleOne(1);
  EXPECT_EQ(sg.snapshot_version, pinned_version);
  EXPECT_EQ(sg.nodes.size(), 2u);
}

}  // namespace
}  // namespace turbo::server
