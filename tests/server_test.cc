// End-to-end loopback tests for the TCP query server (ctest label: net).
//
// The load-bearing invariants:
//   - answers that cross the wire are bitwise-identical to in-process
//     QueryEngine::AnswerAll on the same snapshot (the wire carries raw
//     IEEE doubles, no text round-trip);
//   - a SnapshotPublisher publish mid-stream bumps the version the server
//     serves, and every response carries exactly one version — a batch is
//     never answered by a mix of versions, even while a publisher races
//     the query stream;
//   - framing damage fails with a clean wire error and closes the
//     connection; semantic errors fail only that request.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/synopsis_catalog.h"
#include "common/random.h"
#include "data/generators.h"
#include "grid/uniform_grid.h"
#include "nd/dataset_nd.h"
#include "nd/uniform_grid_nd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query_engine.h"
#include "server/client.h"
#include "server/server.h"
#include "server/socket_io.h"
#include "store/publish.h"
#include "store/snapshot_store.h"
#include "tests/test_util.h"

namespace dpgrid {
namespace {

using test::FixedQueries;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keyed on the PID, not just the test name: two processes running
    // this binary at once (say, plain and sanitizer builds) would
    // otherwise remove_all each other's directories mid-test.
    dir_ = (std::filesystem::temp_directory_path() /
            ("dpgrid_server_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()
                 ->current_test_info()
                 ->name()))
               .string();
    std::filesystem::remove_all(dir_);
    Rng data_rng(321);
    data_ = std::make_unique<Dataset>(MakeCheckinLike(3000, data_rng));
    store_ = std::make_unique<SnapshotStore>(dir_);
    catalog_ = std::make_unique<SynopsisCatalog>(store_.get());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    std::filesystem::remove_all(dir_);
  }

  std::shared_ptr<const Synopsis> MakeGrid(uint64_t seed) {
    Rng rng(seed);
    UniformGridOptions opts;
    opts.grid_size = 16;
    return std::make_shared<const UniformGrid>(*data_, 1.0, rng, opts);
  }

  void StartServer(QueryServerOptions options = {}) {
    server_ = std::make_unique<QueryServer>(catalog_.get(), &engine_,
                                            std::move(options));
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_NE(server_->port(), 0);
  }

  void Connect(QueryClient* client) {
    std::string error;
    ASSERT_TRUE(client->Connect("127.0.0.1", server_->port(), &error))
        << error;
  }

  std::string dir_;
  std::unique_ptr<Dataset> data_;
  std::unique_ptr<SnapshotStore> store_;
  std::unique_ptr<SynopsisCatalog> catalog_;
  const QueryEngine engine_{QueryEngineOptions{.num_threads = 1}};
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServerTest, EndToEndBitwiseIdenticalToInProcessEngine) {
  std::string error;
  auto grid = MakeGrid(1);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{1.0, "e2e"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  QueryClient client;
  Connect(&client);

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 2000, 7);
  std::vector<double> wire_answers;
  uint64_t version = 0;
  WireStatus status = WireStatus::kInternal;
  ASSERT_TRUE(client.QueryBatch("taxi", queries, &wire_answers, &version,
                                &status, &error))
      << error;
  EXPECT_EQ(status, WireStatus::kOk);
  EXPECT_EQ(version, 1u);

  // Bitwise comparison against the engine running in-process on the very
  // snapshot the server serves.
  const auto snap = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_NE(snap, nullptr);
  const std::vector<double> local =
      engine_.AnswerAll(*snap->synopsis, queries);
  ASSERT_EQ(wire_answers.size(), local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(wire_answers[i], local[i]) << "query " << i;
  }

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.batches_answered, 1u);
  EXPECT_EQ(stats.queries_answered, queries.size());
  EXPECT_EQ(stats.malformed_frames, 0u);
}

TEST_F(ServerTest, NdQueriesCrossTheWireBitwiseToo) {
  const BoxNd nd_domain = BoxNd::Cube(3, 0.0, 100.0);
  Rng nd_rng(5);
  const DatasetNd nd_data = MakeUniformDatasetNd(nd_domain, 2000, nd_rng);
  UniformGridNdOptions opts;
  opts.grid_size = 6;
  Rng build_rng(6);
  UniformGridNd cube(nd_data, 1.0, build_rng, opts);
  std::string error;
  ASSERT_EQ(store_->Publish("cube", cube, SnapshotMeta{1.0, "3d"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  Rng q_rng(8);
  std::vector<BoxNd> queries;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> lo(3);
    std::vector<double> hi(3);
    for (size_t a = 0; a < 3; ++a) {
      lo[a] = q_rng.Uniform(0.0, 60.0);
      hi[a] = lo[a] + q_rng.Uniform(0.0, 40.0);
    }
    queries.emplace_back(std::move(lo), std::move(hi));
  }

  QueryClient client;
  Connect(&client);
  std::vector<double> wire_answers;
  uint64_t version = 0;
  WireStatus status = WireStatus::kInternal;
  ASSERT_TRUE(client.QueryBatchNd("cube", 3, queries, &wire_answers,
                                  &version, &status, &error))
      << error;
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(wire_answers, engine_.AnswerAll(cube, queries));
}

TEST_F(ServerTest, SemanticErrorsKeepTheConnectionUsable) {
  std::string error;
  auto grid = MakeGrid(11);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{}, &error), 1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  QueryServerOptions opts;
  opts.max_batch_queries = 1024;
  StartServer(opts);

  QueryClient client;
  Connect(&client);
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 16, 13);
  std::vector<double> answers;
  uint64_t version = 0;
  WireStatus status = WireStatus::kOk;

  // Unknown name → NOT_FOUND.
  EXPECT_FALSE(client.QueryBatch("ghost", queries, &answers, &version,
                                 &status, &error));
  EXPECT_EQ(status, WireStatus::kNotFound);

  // Wrong dims → WRONG_DIMS.
  std::vector<BoxNd> nd_queries = {BoxNd::Cube(4, 0.0, 1.0)};
  EXPECT_FALSE(client.QueryBatchNd("taxi", 4, nd_queries, &answers, &version,
                                   &status, &error));
  EXPECT_EQ(status, WireStatus::kWrongDims);

  // Oversized batch → TOO_LARGE.
  const std::vector<Rect> big = FixedQueries(data_->domain(), 1025, 14);
  EXPECT_FALSE(client.QueryBatch("taxi", big, &answers, &version, &status,
                                 &error));
  EXPECT_EQ(status, WireStatus::kTooLarge);

  // The connection survived all three errors.
  ASSERT_TRUE(client.QueryBatch("taxi", queries, &answers, &version, &status,
                                &error))
      << error;
  EXPECT_EQ(status, WireStatus::kOk);
  EXPECT_EQ(version, 1u);

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.errors_returned, 3u);
  EXPECT_EQ(stats.connections_accepted, 1u);
}

#ifndef _WIN32
TEST_F(ServerTest, FramingDamageGetsErrorThenClose) {
  StartServer();

  // Bad magic: server responds MALFORMED_FRAME and closes.
  {
    std::string error;
    const int fd = net::ConnectTcp("127.0.0.1", server_->port(), &error);
    ASSERT_GE(fd, 0) << error;
    std::string frame = EncodeFrame(WireOp::kStats, 77, "");
    frame[0] ^= 0x01;
    ASSERT_TRUE(net::WriteFull(fd, frame.data(), frame.size()));

    char header[kWireHeaderSize];
    ASSERT_TRUE(net::ReadFull(fd, header, sizeof(header)));
    WireOp op;
    uint64_t id = 0;
    uint64_t body_size = 0;
    uint64_t checksum = 0;
    ASSERT_TRUE(DecodeFrameHeader(std::string_view(header, sizeof(header)),
                                  &op, &id, &body_size, &checksum, &error))
        << error;
    EXPECT_EQ(id, 77u);  // request id echoed even from a damaged frame
    std::string body(body_size, '\0');
    ASSERT_TRUE(net::ReadFull(fd, body.data(), body.size()));
    QueryBatchResponse resp;
    ASSERT_TRUE(DecodeQueryBatchResponse(body, &resp, &error)) << error;
    EXPECT_EQ(resp.status, WireStatus::kMalformedFrame);

    // ...and the server closed its end.
    char byte = 0;
    EXPECT_FALSE(net::ReadFull(fd, &byte, 1));
    ::close(fd);
  }

  // Corrupted body (checksum mismatch): same contract.
  {
    std::string error;
    const int fd = net::ConnectTcp("127.0.0.1", server_->port(), &error);
    ASSERT_GE(fd, 0) << error;
    std::string frame =
        EncodeFrame(WireOp::kQueryBatch, 78,
                    EncodeQueryBatchRequest("x", std::vector<Rect>{}));
    frame.back() ^= 0x10;
    ASSERT_TRUE(net::WriteFull(fd, frame.data(), frame.size()));
    char header[kWireHeaderSize];
    ASSERT_TRUE(net::ReadFull(fd, header, sizeof(header)));
    WireOp op;
    uint64_t id = 0;
    uint64_t body_size = 0;
    uint64_t checksum = 0;
    ASSERT_TRUE(DecodeFrameHeader(std::string_view(header, sizeof(header)),
                                  &op, &id, &body_size, &checksum, &error))
        << error;
    std::string body(body_size, '\0');
    ASSERT_TRUE(net::ReadFull(fd, body.data(), body.size()));
    QueryBatchResponse resp;
    ASSERT_TRUE(DecodeQueryBatchResponse(body, &resp, &error)) << error;
    EXPECT_EQ(resp.status, WireStatus::kMalformedFrame);
    char byte = 0;
    EXPECT_FALSE(net::ReadFull(fd, &byte, 1));
    ::close(fd);
  }

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.malformed_frames, 2u);
}
#endif  // !_WIN32

#ifndef _WIN32
// LIST/STATS/RELOAD carry no payload; a body on them is a semantic error
// (request fails, connection survives), keeping protocol v1 strict.
TEST_F(ServerTest, NonEmptyBodyOnBodylessOpsIsMalformed) {
  StartServer();
  std::string error;
  const int fd = net::ConnectTcp("127.0.0.1", server_->port(), &error);
  ASSERT_GE(fd, 0) << error;

  auto round_trip = [&](uint64_t id, const std::string& body,
                        StatsResponse* resp) {
    const std::string frame = EncodeFrame(WireOp::kStats, id, body);
    ASSERT_TRUE(net::WriteFull(fd, frame.data(), frame.size()));
    char header[kWireHeaderSize];
    ASSERT_TRUE(net::ReadFull(fd, header, sizeof(header)));
    WireOp op;
    uint64_t resp_id = 0;
    uint64_t body_size = 0;
    uint64_t checksum = 0;
    ASSERT_TRUE(DecodeFrameHeader(std::string_view(header, sizeof(header)),
                                  &op, &resp_id, &body_size, &checksum,
                                  &error))
        << error;
    EXPECT_EQ(resp_id, id);
    std::string resp_body(body_size, '\0');
    ASSERT_TRUE(net::ReadFull(fd, resp_body.data(), resp_body.size()));
    ASSERT_TRUE(DecodeStatsResponse(resp_body, resp, &error)) << error;
  };

  StatsResponse bad;
  round_trip(91, "junk", &bad);
  EXPECT_EQ(bad.status, WireStatus::kMalformedRequest);

  // The connection survived the semantic error.
  StatsResponse good;
  round_trip(92, "", &good);
  EXPECT_EQ(good.status, WireStatus::kOk);
  EXPECT_EQ(good.stats.errors_returned, 1u);
  ::close(fd);
}
#endif  // !_WIN32

TEST_F(ServerTest, ListStatsAndReloadOps) {
  std::string error;
  auto grid = MakeGrid(21);
  ASSERT_EQ(store_->Publish("alpha", *grid, SnapshotMeta{0.5, "a"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  QueryClient client;
  Connect(&client);

  std::vector<CatalogEntryInfo> entries;
  ASSERT_TRUE(client.ListSynopses(&entries, &error)) << error;
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "alpha");
  EXPECT_EQ(entries[0].version, 1u);
  EXPECT_EQ(entries[0].dims, 2u);
  EXPECT_EQ(entries[0].epsilon, 0.5);

  // A second process publishes v2 + a brand-new name; RELOAD makes both
  // servable without restarting the server.
  SnapshotStore other(dir_);
  auto v2 = MakeGrid(22);
  ASSERT_EQ(other.Publish("alpha", *v2, SnapshotMeta{0.5, "a2"}, &error), 2u)
      << error;
  ASSERT_EQ(other.Publish("beta", *v2, SnapshotMeta{0.5, "b"}, &error), 1u)
      << error;
  uint64_t installed = 0;
  ASSERT_TRUE(client.Reload(&installed, &error)) << error;
  EXPECT_EQ(installed, 2u);

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 8, 23);
  std::vector<double> answers;
  uint64_t version = 0;
  ASSERT_TRUE(client.QueryBatch("alpha", queries, &answers, &version,
                                nullptr, &error))
      << error;
  EXPECT_EQ(version, 2u);
  ASSERT_TRUE(client.QueryBatch("beta", queries, &answers, &version, nullptr,
                                &error))
      << error;
  EXPECT_EQ(version, 1u);

  WireStats stats;
  ASSERT_TRUE(client.Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.reloads_installed, 2u);
  EXPECT_EQ(stats.batches_answered, 2u);
  EXPECT_GE(stats.frames_received, 5u);

  // An external reload driver (dpgrid_server's DPGRID_RELOAD_SECS poll)
  // reloads the catalog directly and credits the counter via
  // RecordReloads, so STATS reflects poll-driven installs too.
  auto v3 = MakeGrid(24);
  ASSERT_EQ(other.Publish("alpha", *v3, SnapshotMeta{0.5, "a3"}, &error), 3u)
      << error;
  server_->RecordReloads(catalog_->ReloadAll(nullptr));
  ASSERT_TRUE(client.Stats(&stats, &error)) << error;
  EXPECT_EQ(stats.reloads_installed, 3u);
}

// The acceptance path: a SnapshotPublisher publish mid-stream bumps the
// version the server serves, with no restart and no reload op — the
// publisher's sink IS the catalog slot.
TEST_F(ServerTest, PublishMidStreamBumpsServedVersion) {
  SnapshotPublisher publisher(store_.get(), catalog_->Slot2D("live"));
  auto v1 = MakeGrid(31);
  std::string error;
  ASSERT_EQ(publisher.Publish("live", v1, SnapshotMeta{1.0, "v1"}, &error),
            1u)
      << error;
  StartServer();

  QueryClient client;
  Connect(&client);
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 128, 33);

  std::vector<double> answers;
  uint64_t version = 0;
  ASSERT_TRUE(client.QueryBatch("live", queries, &answers, &version, nullptr,
                                &error))
      << error;
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(answers, engine_.AnswerAll(*v1, queries));

  // Publish v2 while the connection is open; the very next batch serves it.
  auto v2 = MakeGrid(32);
  ASSERT_EQ(publisher.Publish("live", v2, SnapshotMeta{1.0, "v2"}, &error),
            2u)
      << error;
  ASSERT_TRUE(client.QueryBatch("live", queries, &answers, &version, nullptr,
                                &error))
      << error;
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(answers, engine_.AnswerAll(*v2, queries));
  // The bump is durable too: the store holds both versions.
  EXPECT_EQ(store_->ListVersions("live"), (std::vector<uint64_t>{1, 2}));
}

// Exactly-one-version-per-batch under a racing publisher: two distinct
// synopses alternate in the slot while a client streams batches; every
// response must match one synopsis's expected answers wholesale — any mix
// would produce a vector matching neither.
TEST_F(ServerTest, RacingPublisherNeverSplitsABatch) {
  auto synopsis_a = MakeGrid(41);
  auto synopsis_b = MakeGrid(42);
  ServingSynopsis* slot = catalog_->Slot2D("flip");
  slot->Publish(synopsis_a, SnapshotMeta{1.0, "A"});  // v1
  StartServer();

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 256, 43);
  const std::vector<double> expected_a = engine_.AnswerAll(*synopsis_a, queries);
  const std::vector<double> expected_b = engine_.AnswerAll(*synopsis_b, queries);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    // Odd versions serve A, even versions serve B.
    bool next_is_b = true;
    while (!stop.load(std::memory_order_acquire)) {
      slot->Publish(next_is_b ? synopsis_b : synopsis_a,
                    SnapshotMeta{1.0, next_is_b ? "B" : "A"});
      next_is_b = !next_is_b;
      std::this_thread::yield();
    }
  });

  QueryClient client;
  Connect(&client);
  std::string error;
  size_t version_changes = 0;
  uint64_t last_version = 0;
  // At least 200 rounds, and more until the race has been seen: how many
  // publishes land between rounds depends on how fast a round is and on
  // when the scheduler runs the publisher (a loaded host can starve it for
  // all of 200 fast rounds). The deadline bounds a publisher that never
  // runs; the assertion below then fails as before.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int round = 0;
       round < 200 || (version_changes <= 5 &&
                       std::chrono::steady_clock::now() < deadline);
       ++round) {
    std::vector<double> answers;
    uint64_t version = 0;
    ASSERT_TRUE(client.QueryBatch("flip", queries, &answers, &version,
                                  nullptr, &error))
        << error;
    const std::vector<double>& expected =
        (version % 2 == 1) ? expected_a : expected_b;
    ASSERT_EQ(answers, expected)
        << "round " << round << " version " << version
        << ": batch does not match any single version";
    if (version != last_version) ++version_changes;
    last_version = version;
  }
  stop.store(true, std::memory_order_release);
  publisher.join();
  // The race must actually have happened: the served version moved under
  // the client many times.
  EXPECT_GT(version_changes, 5u);
}

// --- DPGW v2 negotiation ---------------------------------------------------

TEST_F(ServerTest, V1AndV2ClientsInteropBitwiseOnTheSameServer) {
  std::string error;
  auto grid = MakeGrid(51);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{1.0, "v2"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  const std::vector<Rect> queries = FixedQueries(data_->domain(), 512, 53);
  const auto snap = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_NE(snap, nullptr);
  const std::vector<double> local = engine_.AnswerAll(*snap->synopsis, queries);

  for (const uint32_t version : {kWireProtocolV1, kWireProtocolV2}) {
    QueryClientOptions copts;
    copts.protocol_version = version;
    QueryClient client(copts);
    Connect(&client);
    std::vector<double> answers;
    uint64_t snapshot_version = 0;
    WireStatus status = WireStatus::kInternal;
    ASSERT_TRUE(client.QueryBatch("taxi", queries, &answers,
                                  &snapshot_version, &status, &error))
        << "v" << version << ": " << error;
    EXPECT_EQ(status, WireStatus::kOk);
    EXPECT_EQ(snapshot_version, 1u);
    ASSERT_EQ(answers.size(), local.size());
    for (size_t i = 0; i < local.size(); ++i) {
      EXPECT_EQ(answers[i], local[i]) << "v" << version << " query " << i;
    }
  }
}

#ifndef _WIN32
TEST_F(ServerTest, ServerEchoesTheNegotiatedVersion) {
  StartServer();
  std::string error;
  for (const uint32_t version : {kWireProtocolV1, kWireProtocolV2}) {
    const int fd = net::ConnectTcp("127.0.0.1", server_->port(), &error);
    ASSERT_GE(fd, 0) << error;
    const std::string frame = EncodeFrame(WireOp::kStats, 5, "", version);
    ASSERT_TRUE(net::WriteFull(fd, frame.data(), frame.size()));
    char header[kWireHeaderSize];
    ASSERT_TRUE(net::ReadFull(fd, header, sizeof(header)));
    uint32_t resp_version = 0;
    std::memcpy(&resp_version, header + 4, sizeof(resp_version));
    EXPECT_EQ(resp_version, version);
    ::close(fd);
  }
}

TEST_F(ServerTest, MidConnectionVersionChangeIsMalformed) {
  StartServer();
  std::string error;
  const int fd = net::ConnectTcp("127.0.0.1", server_->port(), &error);
  ASSERT_GE(fd, 0) << error;

  auto read_response = [&](WireOp* op, uint64_t* id, std::string* body,
                           uint32_t* version) {
    char header[kWireHeaderSize];
    ASSERT_TRUE(net::ReadFull(fd, header, sizeof(header)));
    uint64_t body_size = 0;
    uint64_t checksum = 0;
    ASSERT_TRUE(DecodeFrameHeader(std::string_view(header, sizeof(header)),
                                  op, id, &body_size, &checksum, &error,
                                  kWireMaxBodyBytes, version))
        << error;
    body->resize(static_cast<size_t>(body_size));
    ASSERT_TRUE(net::ReadFull(fd, body->data(), body->size()));
    ASSERT_TRUE(VerifyFrameBody(*body, checksum, *version, &error)) << error;
  };

  // First frame negotiates v2 and is served normally.
  const std::string v2_frame =
      EncodeFrame(WireOp::kStats, 1, "", kWireProtocolV2);
  ASSERT_TRUE(net::WriteFull(fd, v2_frame.data(), v2_frame.size()));
  WireOp op = WireOp::kQueryBatch;
  uint64_t id = 0;
  std::string body;
  uint32_t resp_version = 0;
  read_response(&op, &id, &body, &resp_version);
  EXPECT_EQ(op, WireOp::kStats);
  EXPECT_EQ(id, 1u);
  EXPECT_EQ(resp_version, kWireProtocolV2);

  // A v1 frame on the same connection is a framing violation: the server
  // answers MALFORMED_FRAME (still speaking the negotiated v2) and closes.
  const std::string v1_frame =
      EncodeFrame(WireOp::kStats, 2, "", kWireProtocolV1);
  ASSERT_TRUE(net::WriteFull(fd, v1_frame.data(), v1_frame.size()));
  read_response(&op, &id, &body, &resp_version);
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(resp_version, kWireProtocolV2);
  StatsResponse resp;
  ASSERT_TRUE(DecodeStatsResponse(body, &resp, &error)) << error;
  EXPECT_EQ(resp.status, WireStatus::kMalformedFrame);
  EXPECT_NE(resp.message.find("version"), std::string::npos) << resp.message;
  char byte = 0;
  EXPECT_FALSE(net::ReadFull(fd, &byte, 1));
  ::close(fd);

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.malformed_frames, 1u);
}
#endif  // !_WIN32

// --- pipelining ------------------------------------------------------------

TEST_F(ServerTest, PipelinedFramesComeBackInOrderAndBitwiseIdentical) {
  std::string error;
  auto grid = MakeGrid(61);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{1.0, "pipe"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();

  // 2000 queries in 128-query frames with 8 frames in flight: many
  // pipelined frames cross one connection, and the reassembled answer
  // vector must be bitwise what the in-process engine computes.
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 2000, 63);
  QueryClient client;
  Connect(&client);
  std::vector<double> answers;
  uint64_t version = 0;
  WireStatus status = WireStatus::kInternal;
  ASSERT_TRUE(client.QueryBatchPipelined("taxi", queries, /*batch_size=*/128,
                                         /*window=*/8, &answers, &version,
                                         &status, &error))
      << error;
  EXPECT_EQ(status, WireStatus::kOk);
  EXPECT_EQ(version, 1u);

  const auto snap = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_NE(snap, nullptr);
  const std::vector<double> local = engine_.AnswerAll(*snap->synopsis, queries);
  ASSERT_EQ(answers.size(), local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(answers[i], local[i]) << "query " << i;
  }

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.batches_answered, (2000 + 127) / 128);
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.malformed_frames, 0u);
}

// --- buffer retention --------------------------------------------------------

// A streaming connection keeps its request, query, answer and response
// buffers from frame to frame, whatever their size. Big, small, big
// batches on one connection must each come back bitwise equal to the
// in-process engine: no stale query or answer from a bigger earlier frame
// may leak into a later, smaller one.
TEST_F(ServerTest, RetainedBuffersNeverLeakAcrossFrames) {
  std::string error;
  auto grid = MakeGrid(65);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{1.0, "keep"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  StartServer();
  const auto snap = catalog_->Slot2D("taxi")->Acquire();
  ASSERT_NE(snap, nullptr);

  // 140000 queries: a 4.5 MiB request body, 4.3 MiB of decoded queries
  // and a 1.1 MiB response, all above the 1 MiB an idle connection keeps.
  // The third batch is big too, but smaller than the first.
  const std::vector<std::vector<Rect>> batches = {
      FixedQueries(data_->domain(), 140000, 66),
      FixedQueries(data_->domain(), 100, 67),
      FixedQueries(data_->domain(), 135000, 68),
  };
  // No retries: a frame answered from a stale buffer must fail here, not
  // be repaired by a retry on a fresh connection.
  QueryClientOptions client_options;
  client_options.max_retries = 0;
  QueryClient client(client_options);
  Connect(&client);
  std::vector<double> answers;
  for (size_t b = 0; b < batches.size(); ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    uint64_t version = 0;
    ASSERT_TRUE(client.QueryBatch("taxi", batches[b], &answers, &version,
                                  nullptr, &error))
        << error;
    EXPECT_EQ(version, 1u);
    const std::vector<double> local =
        engine_.AnswerAll(*snap->synopsis, batches[b]);
    ASSERT_EQ(answers.size(), local.size());
    for (size_t i = 0; i < local.size(); ++i) {
      ASSERT_EQ(answers[i], local[i]) << "query " << i;
    }
  }

  const WireStats stats = server_->StatsSnapshot();
  EXPECT_EQ(stats.batches_answered, batches.size());
  EXPECT_EQ(stats.queries_answered, 140000u + 100u + 135000u);
  EXPECT_EQ(stats.connections_accepted, 1u);
}

// --- METRICS ---------------------------------------------------------------

TEST_F(ServerTest, MetricsOpReportsTrafficAndEvents) {
  std::string error;
  auto grid = MakeGrid(71);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{1.0, "m"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  QueryServerOptions opts;
  opts.slow_frame_us = 1'000'000'000;  // nothing qualifies as slow
  StartServer(opts);

  QueryClient client;
  Connect(&client);
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 500, 73);
  std::vector<double> answers;
  uint64_t version = 0;
  constexpr int kBatches = 3;
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(client.QueryBatch("taxi", queries, &answers, &version,
                                  nullptr, &error))
        << error;
  }
  WireStatus status = WireStatus::kOk;
  EXPECT_FALSE(client.QueryBatch("ghost", queries, &answers, &version,
                                 &status, &error));
  EXPECT_EQ(status, WireStatus::kNotFound);

  WireStats stats;
  obs::MetricsSnapshot metrics;
  ASSERT_TRUE(client.Metrics(&stats, &metrics, &error)) << error;

  // The STATS counters ride along in the METRICS body.
  EXPECT_EQ(stats.batches_answered, kBatches);
  EXPECT_EQ(stats.errors_returned, 1u);

  // Per-op cells: 4 QUERY_BATCH frames (one errored), and the METRICS
  // frame counts itself on admission, before the snapshot is taken.
  auto find_op = [&metrics](WireOp op) -> const obs::OpMetricsSnapshot* {
    for (const obs::OpMetricsSnapshot& o : metrics.ops) {
      if (o.op == static_cast<uint32_t>(op)) return &o;
    }
    return nullptr;
  };
  const obs::OpMetricsSnapshot* qb = find_op(WireOp::kQueryBatch);
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qb->name, "QUERY_BATCH");
  EXPECT_EQ(qb->requests, kBatches + 1u);
  EXPECT_EQ(qb->errors, 1u);
  EXPECT_GT(qb->bytes_in, 0u);
  EXPECT_GT(qb->bytes_out, 0u);
  // Frame latency lands only after the response is written, so the
  // histogram holds all frames answered before this METRICS request.
  EXPECT_EQ(qb->latency.count, kBatches + 1u);
  const obs::OpMetricsSnapshot* me = find_op(WireOp::kMetrics);
  ASSERT_NE(me, nullptr);
  EXPECT_EQ(me->requests, 1u);
  EXPECT_EQ(me->latency.count, 0u);  // still in flight when snapshotted

  // Stage histograms: every completed frame recorded all six stages.
  ASSERT_EQ(metrics.stages.size(), obs::kNumStages);
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    EXPECT_EQ(metrics.stages[i].count, kBatches + 1u) << obs::StageName(i);
  }

  // Per-dataset cells: "taxi" with the engine-stage histogram, "ghost"
  // with its error.
  ASSERT_EQ(metrics.datasets.size(), 2u);
  EXPECT_EQ(metrics.datasets[0].name, "ghost");  // sorted by name
  EXPECT_EQ(metrics.datasets[0].errors, 1u);
  EXPECT_EQ(metrics.datasets[1].name, "taxi");
  EXPECT_EQ(metrics.datasets[1].batches, kBatches);
  EXPECT_EQ(metrics.datasets[1].queries, kBatches * queries.size());
  EXPECT_EQ(metrics.datasets[1].errors, 0u);
  EXPECT_EQ(metrics.datasets[1].engine_us.count, kBatches);

  // Engine counters and catalog/store lifecycle events ride along.
  EXPECT_EQ(metrics.engine_batches, kBatches);
  EXPECT_EQ(metrics.engine_queries, kBatches * queries.size());
  // The server serves 2-D Rect batches, so the per-family split puts
  // everything in the 2d bins and nothing in the nd bins.
  EXPECT_EQ(metrics.engine_batches_2d, kBatches);
  EXPECT_EQ(metrics.engine_queries_2d, kBatches * queries.size());
  EXPECT_EQ(metrics.engine_batches_nd, 0u);
  EXPECT_EQ(metrics.engine_queries_nd, 0u);
  auto find_event = [&metrics](const std::string& name) -> uint64_t {
    for (const obs::EventSnapshot& e : metrics.events) {
      if (e.name == name) return e.count;
    }
    return ~uint64_t{0};
  };
  EXPECT_EQ(find_event("catalog_versions_installed"), 1u);
  EXPECT_EQ(find_event("store_publishes"), 1u);
  EXPECT_EQ(find_event("catalog_reload_sweeps"), 1u);  // LoadAll's sweep

  // Nothing crossed the (absurd) slow threshold.
  EXPECT_EQ(metrics.slow_frame_us, 1'000'000'000u);
  EXPECT_EQ(metrics.slow_frames, 0u);
  EXPECT_TRUE(metrics.slow_traces.empty());
}

TEST_F(ServerTest, SlowFramesAreRetainedWithStageBreakdown) {
  std::string error;
  auto grid = MakeGrid(75);
  ASSERT_EQ(store_->Publish("taxi", *grid, SnapshotMeta{1.0, "s"}, &error),
            1u)
      << error;
  ASSERT_EQ(catalog_->LoadAll(nullptr), 1u);
  QueryServerOptions opts;
  opts.slow_frame_us = 1;  // every non-instant frame is "slow"
  opts.slow_trace_capacity = 4;
  StartServer(opts);

  QueryClient client;
  Connect(&client);
  const std::vector<Rect> queries = FixedQueries(data_->domain(), 2000, 77);
  std::vector<double> answers;
  uint64_t version = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.QueryBatch("taxi", queries, &answers, &version,
                                  nullptr, &error))
        << error;
  }
  obs::MetricsSnapshot metrics;
  ASSERT_TRUE(client.Metrics(nullptr, &metrics, &error)) << error;
  // A 2000-query engine pass takes well over 1µs, so every batch frame
  // crossed the threshold; the ring retains only the last 4.
  EXPECT_GE(metrics.slow_frames, 6u);
  ASSERT_EQ(metrics.slow_traces.size(), 4u);
  for (const obs::FrameTrace& t : metrics.slow_traces) {
    EXPECT_EQ(t.DatasetString(), "taxi");
    EXPECT_EQ(t.queries, queries.size());
    EXPECT_GE(t.TotalUs(), 1u);
    EXPECT_GT(t.unix_s, 0u);
  }
}

TEST_F(ServerTest, ShutdownUnblocksIdleConnections) {
  StartServer();
  QueryClient client;
  Connect(&client);
  // The client sits idle (server blocked in read); Shutdown must not hang.
  server_->Shutdown();
  EXPECT_FALSE(server_->running());
  // The idle client's next request fails cleanly.
  std::vector<CatalogEntryInfo> entries;
  std::string error;
  EXPECT_FALSE(client.ListSynopses(&entries, &error));
}

}  // namespace
}  // namespace dpgrid
