// Tests for the network serving front-end (src/serve/): wire-format
// round-trips and hardening (truncated frames, oversize length prefixes,
// bad checksums, unknown ops, mid-frame disconnects), the micro-batching
// coalescer's window/cap/deadline/backpressure contract, and end-to-end
// server behavior over loopback TCP — including that a dying client
// leaves its batch peers unaffected and that shutdown drains held
// requests. The TSan CI job runs the Coalescer*/Serve* suites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/collection.h"
#include "dataset/float_matrix.h"
#include "dataset/synthetic.h"
#include "exec/task_executor.h"
#include "serve/client.h"
#include "serve/coalescer.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/status.h"

namespace dblsh::serve {
namespace {

using Clock = Coalescer::Clock;

// A default request asking for `k` neighbors. (A designated initializer
// would leave the other fields implicit, which GCC 12 flags under
// -Wmissing-field-initializers.)
QueryRequest TopK(size_t k) {
  QueryRequest request;
  request.k = k;
  return request;
}

FloatMatrix SmallData(size_t n = 200, size_t dim = 8) {
  return GenerateClustered({.n = n, .dim = dim, .clusters = 5, .seed = 99});
}

// `storage` is a collection-spec suffix such as ",storage=sq8".
std::unique_ptr<Collection> SmallCollection(size_t n = 200, size_t dim = 8,
                                            const std::string& storage = "") {
  auto made = Collection::FromSpec(
      "collection" + storage + ": LinearScan",
      std::make_unique<FloatMatrix>(SmallData(n, dim)));
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return std::move(made).value();
}

// Polls until `count` reaches `want` (callbacks fire on executor threads).
void AwaitCount(const std::atomic<int>& count, int want,
                int timeout_ms = 5000) {
  const auto give_up =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (count.load() < want && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(count.load(), want) << "timed out waiting for callbacks";
}

bool SameIds(const std::vector<Neighbor>& a, const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id && a[i].dist != b[i].dist) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Wire format.

TEST(ServeProtocolTest, FrameRoundTrips) {
  std::vector<uint8_t> payload;
  wire::PutU32(&payload, 42);
  wire::PutString(&payload, "main");
  wire::PutF64(&payload, 1.5);
  const auto frame = EncodeFrame(OpCode::kSearch, 7, payload);
  ASSERT_EQ(frame.size(), kHeaderBytes + payload.size());

  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), &header));
  EXPECT_EQ(header.op, OpCode::kSearch);
  EXPECT_EQ(header.request_id, 7u);
  EXPECT_EQ(header.payload_len, payload.size());
  EXPECT_EQ(header.payload_checksum,
            Fnv1a32(payload.data(), payload.size()));

  wire::Reader r(frame.data() + kHeaderBytes, payload.size());
  uint32_t v;
  std::string s;
  double d;
  ASSERT_TRUE(r.GetU32(&v) && r.GetString(&s) && r.GetF64(&d));
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(s, "main");
  EXPECT_EQ(d, 1.5);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ServeProtocolTest, HeaderRejectsWrongMagicVersionReserved) {
  const auto frame = EncodeFrame(OpCode::kPing, 1, {});
  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame.data(), &header));

  auto bad = frame;
  bad[0] ^= 0xFF;  // magic
  EXPECT_FALSE(DecodeHeader(bad.data(), &header));
  bad = frame;
  bad[4] = kProtocolVersion + 1;  // version
  EXPECT_FALSE(DecodeHeader(bad.data(), &header));
  bad = frame;
  bad[6] = 1;  // reserved
  EXPECT_FALSE(DecodeHeader(bad.data(), &header));
}

TEST(ServeProtocolTest, ReaderIsBoundsChecked) {
  std::vector<uint8_t> payload;
  wire::PutU16(&payload, 100);  // string length prefix lying about its body
  wire::Reader lying(payload.data(), payload.size());
  std::string s;
  EXPECT_FALSE(lying.GetString(&s));

  const uint8_t two[2] = {1, 2};
  wire::Reader short32(two, sizeof(two));
  uint32_t v;
  EXPECT_FALSE(short32.GetU32(&v));

  std::vector<uint8_t> floats;
  wire::PutF32(&floats, 1.f);
  wire::Reader overrun(floats.data(), floats.size());
  std::vector<float> out;
  EXPECT_FALSE(overrun.GetF32Array(2, &out));  // asks for 8 bytes of 4
  EXPECT_TRUE(overrun.GetF32Array(1, &out));
  EXPECT_EQ(out[0], 1.f);
}

TEST(ServeProtocolTest, F32ArrayCountOverflowCannotPassTheBoundsCheck) {
  std::vector<uint8_t> floats;
  wire::PutF32(&floats, 1.f);
  wire::Reader r(floats.data(), floats.size());
  std::vector<float> out;
  // With a naive `remaining() < count * 4` bound these counts wrap the
  // multiplication (to 4 and 0), pass the check, and resize() throws.
  EXPECT_FALSE(r.GetF32Array(SIZE_MAX / 4 + 1, &out));
  EXPECT_FALSE(r.GetF32Array(size_t{1} << 62, &out));
  EXPECT_TRUE(r.GetF32Array(1, &out));  // the reader position is intact
  EXPECT_EQ(out[0], 1.f);
}

TEST(ServeProtocolTest, StatusMappingRoundTripsAndFlagsRetryable) {
  EXPECT_TRUE(IsRetryable(WireStatus::kOverloaded));
  EXPECT_TRUE(IsRetryable(WireStatus::kShuttingDown));
  EXPECT_FALSE(IsRetryable(WireStatus::kDeadlineExceeded));
  EXPECT_FALSE(IsRetryable(WireStatus::kOk));

  EXPECT_TRUE(ToStatus(WireStatus::kOverloaded, "x").retryable());
  EXPECT_TRUE(ToStatus(WireStatus::kShuttingDown, "x").retryable());
  EXPECT_FALSE(ToStatus(WireStatus::kDeadlineExceeded, "x").retryable());
  EXPECT_EQ(ToStatus(WireStatus::kDeadlineExceeded, "x").code(),
            StatusCode::kDeadlineExceeded);

  for (const WireStatus ws :
       {WireStatus::kOk, WireStatus::kInvalidArgument, WireStatus::kNotFound,
        WireStatus::kDeadlineExceeded, WireStatus::kInternal}) {
    EXPECT_EQ(FromStatus(ToStatus(ws, "msg")), ws);
  }
  EXPECT_EQ(FromStatus(Status::Unavailable("shed")), WireStatus::kOverloaded);
}

TEST(ServeProtocolTest, PutStringTruncatesOversizeInput) {
  std::vector<uint8_t> out;
  wire::PutString(&out, std::string(100000, 'a'));
  wire::Reader r(out.data(), out.size());
  std::string s;
  ASSERT_TRUE(r.GetString(&s));
  EXPECT_EQ(s.size(), 0xFFFFu);
}

// ---------------------------------------------------------------------------
// Coalescer.

class CoalescerTest : public ::testing::Test {
 protected:
  CoalescerTest()
      : data_(SmallData()),
        collection_(SmallCollection()),
        flush_pool_(1),
        query_pool_(2) {}

  std::unique_ptr<Coalescer> Make(const CoalescerOptions& options) {
    return std::make_unique<Coalescer>(&flush_pool_, &query_pool_, options);
  }

  std::vector<float> Query(size_t i = 0) const {
    const float* row = data_.row(i);
    return {row, row + data_.cols()};
  }

  FloatMatrix data_;  ///< same seed as the collection's seed rows
  std::unique_ptr<Collection> collection_;
  exec::TaskExecutor flush_pool_;
  exec::TaskExecutor query_pool_;
};

TEST_F(CoalescerTest, CoalescesConcurrentSubmitsIntoOneBatch) {
  auto coalescer = Make({.window_us = 50000, .max_batch = 32});
  QueryRequest request = TopK(5);
  std::atomic<int> done{0};
  std::mutex mu;
  std::vector<uint32_t> batch_sizes;
  std::vector<QueryResponse> responses(6);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(coalescer
                    ->Submit(collection_.get(), Query(i), request,
                             Clock::time_point::max(),
                             [&, i](const Status& s, QueryResponse r,
                                    uint32_t batch_size) {
                               ASSERT_TRUE(s.ok()) << s.ToString();
                               std::lock_guard lock(mu);
                               responses[i] = std::move(r);
                               batch_sizes.push_back(batch_size);
                               ++done;
                             })
                    .ok());
  }
  AwaitCount(done, 6);
  for (uint32_t b : batch_sizes) EXPECT_EQ(b, 6u);
  const CoalescerStats stats = coalescer->stats();
  EXPECT_EQ(stats.admitted, 6u);
  EXPECT_EQ(stats.batches_dispatched, 1u);
  EXPECT_EQ(stats.batched_queries, 6u);
  EXPECT_EQ(stats.max_batch_size, 6u);
  // Coalesced answers must equal direct single-query answers.
  for (int i = 0; i < 6; ++i) {
    auto direct = collection_->Search(Query(i).data(), request);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(SameIds(responses[i].neighbors, direct.value().neighbors));
  }
}

TEST_F(CoalescerTest, BatchCapFlushesEarly) {
  auto coalescer = Make({.window_us = 10000000, .max_batch = 2});
  std::atomic<int> done{0};
  const auto t0 = Clock::now();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(coalescer
                    ->Submit(collection_.get(), Query(i), QueryRequest{},
                             Clock::time_point::max(),
                             [&](const Status& s, QueryResponse,
                                 uint32_t batch_size) {
                               EXPECT_TRUE(s.ok());
                               EXPECT_EQ(batch_size, 2u);
                               ++done;
                             })
                    .ok());
  }
  AwaitCount(done, 4);
  // Dispatched at the cap, not after the 10-second window.
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(5));
  EXPECT_EQ(coalescer->stats().batches_dispatched, 2u);
}

TEST_F(CoalescerTest, IncompatibleRequestsDoNotShareBatches) {
  auto coalescer = Make({.window_us = 20000});
  std::atomic<int> done{0};
  for (const size_t k : {size_t{3}, size_t{5}}) {
    ASSERT_TRUE(coalescer
                    ->Submit(collection_.get(), Query(), TopK(k),
                             Clock::time_point::max(),
                             [&, k](const Status& s, QueryResponse r,
                                    uint32_t batch_size) {
                               EXPECT_TRUE(s.ok());
                               EXPECT_EQ(r.neighbors.size(), k);
                               EXPECT_EQ(batch_size, 1u);
                               ++done;
                             })
                    .ok());
  }
  AwaitCount(done, 2);
  EXPECT_EQ(coalescer->stats().batches_dispatched, 2u);
}

TEST_F(CoalescerTest, FilteredRequestBypassesTheWindow) {
  auto coalescer = Make({.window_us = 10000000});
  QueryRequest request;
  request.filter = QueryFilter::Deny({0});
  std::atomic<int> done{0};
  const auto t0 = Clock::now();
  ASSERT_TRUE(coalescer
                  ->Submit(collection_.get(), Query(), request,
                           Clock::time_point::max(),
                           [&](const Status& s, QueryResponse r,
                               uint32_t batch_size) {
                             EXPECT_TRUE(s.ok());
                             EXPECT_EQ(batch_size, 1u);
                             for (const auto& nb : r.neighbors) {
                               EXPECT_NE(nb.id, 0u);
                             }
                             ++done;
                           })
                  .ok());
  AwaitCount(done, 1);
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(5));
}

TEST_F(CoalescerTest, ExpiredDeadlineIsRejectedAtAdmission) {
  auto coalescer = Make({});
  bool callback_ran = false;
  const Status s = coalescer->Submit(
      collection_.get(), Query(), QueryRequest{},
      Clock::now() - std::chrono::milliseconds(1),
      [&](const Status&, QueryResponse, uint32_t) { callback_ran = true; });
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(callback_ran);
  EXPECT_EQ(coalescer->stats().rejected_deadline, 1u);
  EXPECT_EQ(coalescer->stats().admitted, 0u);
}

TEST_F(CoalescerTest, DeadlineExpiringInWindowSkipsExecution) {
  auto coalescer = Make({.window_us = 5000000});
  std::atomic<int> done{0};
  ASSERT_TRUE(coalescer
                  ->Submit(collection_.get(), Query(), QueryRequest{},
                           Clock::now() + std::chrono::milliseconds(5),
                           [&](const Status& s, QueryResponse,
                               uint32_t batch_size) {
                             EXPECT_EQ(s.code(),
                                       StatusCode::kDeadlineExceeded);
                             EXPECT_EQ(batch_size, 0u);
                             ++done;
                           })
                  .ok());
  AwaitCount(done, 1);
  // The query never reached the index.
  EXPECT_EQ(coalescer->stats().batched_queries, 0u);
  EXPECT_GE(coalescer->stats().rejected_deadline, 1u);
}

TEST_F(CoalescerTest, ShedsWithRetryableStatusAtMaxInflight) {
  auto coalescer = Make(
      {.window_us = 200000, .max_batch = 32, .max_inflight = 2});
  std::atomic<int> done{0};
  auto ok_callback = [&](const Status& s, QueryResponse, uint32_t) {
    EXPECT_TRUE(s.ok());
    ++done;
  };
  ASSERT_TRUE(coalescer
                  ->Submit(collection_.get(), Query(0), QueryRequest{},
                           Clock::time_point::max(), ok_callback)
                  .ok());
  ASSERT_TRUE(coalescer
                  ->Submit(collection_.get(), Query(1), QueryRequest{},
                           Clock::time_point::max(), ok_callback)
                  .ok());
  const Status shed = coalescer->Submit(
      collection_.get(), Query(2), QueryRequest{}, Clock::time_point::max(),
      [&](const Status&, QueryResponse, uint32_t) { FAIL(); });
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(shed.retryable());
  EXPECT_EQ(coalescer->stats().shed_overload, 1u);
  coalescer->Drain();
  AwaitCount(done, 2);
}

TEST_F(CoalescerTest, DrainFlushesHeldQueriesAndStopsIntake) {
  auto coalescer = Make({.window_us = 10000000});
  std::atomic<int> done{0};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(coalescer
                    ->Submit(collection_.get(), Query(i), QueryRequest{},
                             Clock::time_point::max(),
                             [&](const Status& s, QueryResponse, uint32_t) {
                               EXPECT_TRUE(s.ok());
                               ++done;
                             })
                    .ok());
  }
  coalescer->Drain();
  EXPECT_EQ(done.load(), 3);  // Drain returns only after completion
  EXPECT_EQ(coalescer->inflight(), 0u);
  const Status refused = coalescer->Submit(
      collection_.get(), Query(), QueryRequest{}, Clock::time_point::max(),
      [](const Status&, QueryResponse, uint32_t) {});
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
}

TEST_F(CoalescerTest, SubmitBatchDispatchesWithoutWindowHold) {
  auto coalescer = Make({.window_us = 10000000});
  FloatMatrix queries(4, collection_->dim());
  for (size_t i = 0; i < 4; ++i) {
    const auto q = Query(i);
    std::copy(q.begin(), q.end(), queries.mutable_row(i));
  }
  QueryRequest request = TopK(3);
  std::atomic<int> done{0};
  const auto t0 = Clock::now();
  ASSERT_TRUE(coalescer
                  ->SubmitBatch(collection_.get(), queries, request,
                                Clock::time_point::max(),
                                [&](const Status& s,
                                    std::vector<QueryResponse> responses) {
                                  EXPECT_TRUE(s.ok());
                                  EXPECT_EQ(responses.size(), 4u);
                                  ++done;
                                })
                  .ok());
  AwaitCount(done, 1);
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(5));
  EXPECT_EQ(coalescer->stats().batched_queries, 4u);
}

TEST_F(CoalescerTest, DestructorDrainsHeldQueries) {
  std::atomic<int> done{0};
  {
    auto coalescer = Make({.window_us = 10000000});
    ASSERT_TRUE(coalescer
                    ->Submit(collection_.get(), Query(), QueryRequest{},
                             Clock::time_point::max(),
                             [&](const Status& s, QueryResponse, uint32_t) {
                               EXPECT_TRUE(s.ok());
                               ++done;
                             })
                    .ok());
  }
  EXPECT_EQ(done.load(), 1);
}

// ---------------------------------------------------------------------------
// Server, end to end over loopback.

class ServeServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {},
                   const std::string& storage = "") {
    server_.reset();  // stop any old server before its collection goes
    data_ = SmallData();
    collection_ = SmallCollection(data_.rows(), data_.cols(), storage);
    options.max_connections =
        options.max_connections == 32 ? 4 : options.max_connections;
    auto started =
        Server::Start({{"main", collection_.get()}}, options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(started).value();
  }

  std::unique_ptr<Client> MakeClient() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::vector<float> Query(size_t i = 0) const {
    const float* row = data_.row(i);
    return {row, row + data_.cols()};
  }

  FloatMatrix data_;  ///< same seed as the collection's seed rows
  std::unique_ptr<Collection> collection_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServeServerTest, PingAndSearchRoundTrip) {
  StartServer();
  auto client = MakeClient();
  ASSERT_TRUE(client->Ping().ok());

  QueryRequest request = TopK(5);
  const auto q = Query(3);
  auto reply = client->Search("main", q.data(), q.size(), request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_GE(reply.value().batch_size, 1u);
  auto direct = collection_->Search(q.data(), request);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(
      SameIds(reply.value().response.neighbors, direct.value().neighbors));
  EXPECT_GT(reply.value().response.stats.candidates_verified, 0u);
}

// Runs once per storage backend: the quantized read path (asymmetric
// scan + re-rank) must serve over the wire exactly as it does in process,
// and Stats must report the backend the collection actually holds.
TEST_F(ServeServerTest, SearchBatchUpsertDeleteStatsRoundTrip) {
  for (const std::string storage :
       {"", ",storage=sq8", ",storage=pq,m=4"}) {
    SCOPED_TRACE("storage suffix '" + storage + "'");
    StartServer({}, storage);
    auto client = MakeClient();

    FloatMatrix queries(3, collection_->dim());
    for (size_t i = 0; i < 3; ++i) {
      const auto q = Query(i);
      std::copy(q.begin(), q.end(), queries.mutable_row(i));
    }
    auto batch = client->SearchBatch("main", queries, TopK(4));
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch.value().size(), 3u);
    auto direct = collection_->SearchBatch(queries, TopK(4));
    ASSERT_TRUE(direct.ok());
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(SameIds(batch.value()[i].neighbors,
                          direct.value()[i].neighbors));
    }

    // Upsert an outlier, find it, replace it under its id, then delete it.
    const std::vector<float> outlier(collection_->dim(), 500.f);
    auto id = client->Upsert("main", outlier.data(), outlier.size());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    auto found =
        client->Search("main", outlier.data(), outlier.size(), TopK(1));
    ASSERT_TRUE(found.ok());
    ASSERT_EQ(found.value().response.neighbors.size(), 1u);
    EXPECT_EQ(found.value().response.neighbors[0].id, id.value());

    auto replaced =
        client->Upsert("main", id.value(), outlier.data(), outlier.size());
    ASSERT_TRUE(replaced.ok());
    EXPECT_EQ(replaced.value(), id.value());
    ASSERT_TRUE(client->Delete("main", id.value()).ok());
    EXPECT_EQ(client->Delete("main", id.value()).code(),
              StatusCode::kNotFound);

    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats.value().collections.size(), 1u);
    const RemoteCollectionStats& remote = stats.value().collections[0];
    EXPECT_EQ(remote.name, "main");
    EXPECT_EQ(remote.live_vectors, collection_->size());
    const CollectionStorageInfo local = collection_->Storage();
    EXPECT_EQ(remote.storage, local.kind);
    EXPECT_EQ(remote.bytes_per_vector, local.bytes_per_vector);
    EXPECT_EQ(remote.rerank, local.rerank);
    EXPECT_EQ(remote.resident_bytes, local.resident_bytes);
    if (!storage.empty()) {
      EXPECT_GE(remote.rerank, 1u);
    }
    EXPECT_EQ(stats.value().server.upserts, 2u);
    EXPECT_EQ(stats.value().server.deletes, 2u);
    EXPECT_GE(stats.value().server.searches, 4u);
  }
}

TEST_F(ServeServerTest, UnknownCollectionAndDimMismatchAreTyped) {
  StartServer();
  auto client = MakeClient();
  const auto q = Query();
  EXPECT_EQ(client->Search("nope", q.data(), q.size(), {}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->Search("main", q.data(), 3, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client->Delete("nope", 0).code(), StatusCode::kNotFound);
}

TEST_F(ServeServerTest, PipelinedSearchesCoalesceIntoBatches) {
  ServerOptions options;
  options.coalescer.window_us = 50000;  // generous window on a 1-CPU box
  StartServer(options);
  auto client = MakeClient();

  QueryRequest request = TopK(5);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    const auto q = Query(i);
    auto sent = client->SendSearch("main", q.data(), q.size(), request);
    ASSERT_TRUE(sent.ok()) << sent.status().ToString();
    ids.push_back(sent.value());
  }
  uint32_t max_batch = 0;
  for (int i = 0; i < 8; ++i) {
    auto got = client->ReceiveSearchReply();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.value().status.ok()) << got.value().status.ToString();
    max_batch = std::max(max_batch, got.value().reply.batch_size);
  }
  // The acceptance bar: concurrent loopback searches demonstrably batch.
  EXPECT_GE(max_batch, 2u);
  const ServerStats stats = server_->Stats();
  EXPECT_GE(stats.max_batch_size, 2u);
  EXPECT_GE(stats.mean_batch_size, 2.0);
}

// The serving acceptance bar under real concurrency: 8 connections, each
// a closed loop of blocking Search round-trips, must share batches. Each
// client runs on its own executor task (no raw threads in tests).
TEST_F(ServeServerTest, ConcurrentClosedLoopClientsCoalesce) {
  constexpr size_t kClients = 8;
  constexpr size_t kSearchesPerClient = 8;
  ServerOptions options;
  options.max_connections = kClients;
  options.coalescer.window_us = 50000;  // generous window on a 1-CPU box
  StartServer(options);

  exec::TaskExecutor clients(kClients);
  std::vector<std::future<void>> loops;
  for (size_t c = 0; c < kClients; ++c) {
    loops.push_back(clients.Submit([this, c] {
      auto client = MakeClient();
      ASSERT_NE(client, nullptr);
      for (size_t i = 0; i < kSearchesPerClient; ++i) {
        const auto q = Query(c * kSearchesPerClient + i);
        auto reply = client->Search("main", q.data(), q.size(), TopK(5));
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        auto direct = collection_->Search(q.data(), TopK(5));
        ASSERT_TRUE(direct.ok());
        EXPECT_TRUE(SameIds(reply.value().response.neighbors,
                            direct.value().neighbors))
            << "client " << c << " search " << i;
      }
    }));
  }
  for (auto& loop : loops) loop.get();

  const ServerStats stats = server_->Stats();
  EXPECT_EQ(stats.searches, kClients * kSearchesPerClient);
  EXPECT_GE(stats.mean_batch_size, 2.0);
}

TEST_F(ServeServerTest, ExpiredDeadlineIsRejectedWithoutExecution) {
  StartServer();
  auto client = MakeClient();
  const auto q = Query();
  auto reply =
      client->Search("main", q.data(), q.size(), {}, /*deadline_us=*/1);
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(server_->Stats().rejected_deadline, 1u);
  // The connection stays healthy and an undeadlined search still works.
  auto ok = client->Search("main", q.data(), q.size(), {});
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST_F(ServeServerTest, OverloadShedsWithRetryableStatus) {
  ServerOptions options;
  options.coalescer.max_inflight = 1;
  options.coalescer.window_us = 100000;
  StartServer(options);
  auto client = MakeClient();

  const auto q = Query();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client->SendSearch("main", q.data(), q.size(), {}).ok());
  }
  int ok = 0, shed = 0;
  for (int i = 0; i < 4; ++i) {
    auto got = client->ReceiveSearchReply();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (got.value().status.ok()) {
      ++ok;
    } else {
      EXPECT_TRUE(got.value().status.retryable())
          << got.value().status.ToString();
      ++shed;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_GE(server_->Stats().shed_overload, 1u);
}

TEST_F(ServeServerTest, ConnectionCapShedsWithRetryableFrame) {
  ServerOptions options;
  options.max_connections = 1;
  StartServer(options);
  auto client = MakeClient();
  ASSERT_TRUE(client->Ping().ok());  // the one admitted connection

  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  // The shed frame arrives unprompted, addressed to request_id 0.
  uint8_t header_buf[kHeaderBytes];
  ASSERT_TRUE(ReadFull(fd.value(), header_buf, kHeaderBytes).ok());
  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(header_buf, &header));
  EXPECT_EQ(header.request_id, 0u);
  std::vector<uint8_t> payload(header.payload_len);
  ASSERT_TRUE(ReadFull(fd.value(), payload.data(), payload.size()).ok());
  wire::Reader r(payload.data(), payload.size());
  uint8_t status;
  ASSERT_TRUE(r.GetU8(&status));
  EXPECT_EQ(static_cast<WireStatus>(status), WireStatus::kOverloaded);
  EXPECT_TRUE(IsRetryable(static_cast<WireStatus>(status)));
  CloseFd(fd.value());
  EXPECT_GE(server_->Stats().connections_rejected, 1u);
  ASSERT_TRUE(client->Ping().ok());  // the admitted peer is unaffected
}

// Reads one frame off a raw socket (hardening tests drive the protocol
// below the Client abstraction).
Status ReadRawFrame(int fd, FrameHeader* header,
                    std::vector<uint8_t>* payload) {
  uint8_t header_buf[kHeaderBytes];
  Status s = ReadFull(fd, header_buf, kHeaderBytes);
  if (!s.ok()) return s;
  if (!DecodeHeader(header_buf, header)) {
    return Status::Corruption("bad header");
  }
  payload->resize(header->payload_len);
  return payload->empty() ? Status::OK()
                          : ReadFull(fd, payload->data(), payload->size());
}

WireStatus StatusOf(const std::vector<uint8_t>& payload) {
  wire::Reader r(payload.data(), payload.size());
  uint8_t status = 0xFF;
  r.GetU8(&status);
  return static_cast<WireStatus>(status);
}

TEST(ServeClientTest, OversizeResponseLengthIsRejectedBeforeAllocation) {
  // A spoofed "server" that answers with a huge length prefix must not be
  // able to make the client allocate gigabytes: the client mirrors the
  // server's payload gate.
  uint16_t port = 0;
  auto listening = ListenTcp("127.0.0.1", 0, &port);
  ASSERT_TRUE(listening.ok());
  ClientOptions options;
  options.max_payload_bytes = 1024;
  auto client = Client::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto accepted = AcceptWithTimeout(listening.value(), 1000);
  ASSERT_TRUE(accepted.ok());

  // Pre-send the bogus response (request_id 1 = the client's first call);
  // TCP buffers the Ping request the client writes before reading it.
  auto frame = EncodeFrame(OpCode::kPing, 1, {});
  frame[16] = 0xFF;  // payload_len := huge, no payload follows
  frame[17] = 0xFF;
  frame[18] = 0xFF;
  frame[19] = 0x7F;
  ASSERT_TRUE(WriteFull(accepted.value(), frame.data(), frame.size()).ok());

  const Status s = client.value()->Ping();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  CloseFd(accepted.value());
  CloseFd(listening.value());
}

TEST_F(ServeServerTest, GarbageStreamIsDroppedWithoutHarmingPeers) {
  StartServer();
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  std::vector<uint8_t> garbage(64, 0xAB);
  ASSERT_TRUE(WriteFull(fd.value(), garbage.data(), garbage.size()).ok());
  // The server answers nothing and closes: the next read sees EOF.
  uint8_t byte;
  const Status s = ReadFull(fd.value(), &byte, 1);
  EXPECT_FALSE(s.ok());
  CloseFd(fd.value());

  auto client = MakeClient();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GE(server_->Stats().protocol_errors, 1u);
}

TEST_F(ServeServerTest, OversizeLengthPrefixIsRejectedBeforeAllocation) {
  ServerOptions options;
  options.max_payload_bytes = 1024;
  StartServer(options);
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());

  auto frame = EncodeFrame(OpCode::kPing, 9, {});
  frame[16] = 0xFF;  // payload_len := huge, no payload follows
  frame[17] = 0xFF;
  frame[18] = 0xFF;
  frame[19] = 0x7F;
  ASSERT_TRUE(WriteFull(fd.value(), frame.data(), frame.size()).ok());

  FrameHeader header;
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &payload).ok());
  EXPECT_EQ(header.request_id, 9u);
  EXPECT_EQ(StatusOf(payload), WireStatus::kProtocolError);
  // ... and the connection is dropped (the stream cannot resync).
  uint8_t byte;
  EXPECT_FALSE(ReadFull(fd.value(), &byte, 1).ok());
  CloseFd(fd.value());
  EXPECT_GE(server_->Stats().protocol_errors, 1u);
}

TEST_F(ServeServerTest, HugeBatchDimensionsAreAnsweredNotFatal) {
  StartServer();
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());

  // num = dim = 2^31 makes num*dim = 2^62: a naive `count * 4` bound
  // wraps to 0, resize(2^62) throws on an executor thread, and the whole
  // process dies. The server must answer a typed error instead.
  std::vector<uint8_t> payload;
  wire::PutString(&payload, "main");
  wire::PutU32(&payload, 10);            // k
  wire::PutU32(&payload, 0);             // deadline_us
  wire::PutU32(&payload, 0);             // candidate_budget
  wire::PutF64(&payload, 0.0);           // r0
  wire::PutU32(&payload, 0x80000000u);   // num
  wire::PutU32(&payload, 0x80000000u);   // dim — and no floats follow
  const auto frame = EncodeFrame(OpCode::kSearchBatch, 31, payload);
  ASSERT_TRUE(WriteFull(fd.value(), frame.data(), frame.size()).ok());

  FrameHeader header;
  std::vector<uint8_t> response;
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok());
  EXPECT_EQ(header.request_id, 31u);
  EXPECT_EQ(StatusOf(response), WireStatus::kProtocolError);
  CloseFd(fd.value());

  auto client = MakeClient();
  EXPECT_TRUE(client->Ping().ok());  // the server is still alive
  EXPECT_GE(server_->Stats().protocol_errors, 1u);
}

TEST_F(ServeServerTest, BadChecksumIsAnsweredAndTheConnectionSurvives) {
  StartServer();
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());

  std::vector<uint8_t> payload;
  wire::PutU32(&payload, 1234);
  auto frame = EncodeFrame(OpCode::kPing, 11, payload);
  frame[20] ^= 0xFF;  // corrupt the checksum
  ASSERT_TRUE(WriteFull(fd.value(), frame.data(), frame.size()).ok());

  FrameHeader header;
  std::vector<uint8_t> response;
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok());
  EXPECT_EQ(StatusOf(response), WireStatus::kProtocolError);

  // Frame boundaries stayed sound: a clean Ping on the same socket works.
  const auto ping = EncodeFrame(OpCode::kPing, 12, {});
  ASSERT_TRUE(WriteFull(fd.value(), ping.data(), ping.size()).ok());
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok());
  EXPECT_EQ(header.request_id, 12u);
  EXPECT_EQ(StatusOf(response), WireStatus::kOk);
  CloseFd(fd.value());
}

TEST_F(ServeServerTest, UnknownOpCodeIsAnsweredAndTheConnectionSurvives) {
  StartServer();
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  const auto frame = EncodeFrame(static_cast<OpCode>(99), 21, {});
  ASSERT_TRUE(WriteFull(fd.value(), frame.data(), frame.size()).ok());
  FrameHeader header;
  std::vector<uint8_t> response;
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok());
  EXPECT_EQ(header.request_id, 21u);
  EXPECT_EQ(StatusOf(response), WireStatus::kProtocolError);

  const auto ping = EncodeFrame(OpCode::kPing, 22, {});
  ASSERT_TRUE(WriteFull(fd.value(), ping.data(), ping.size()).ok());
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok());
  EXPECT_EQ(StatusOf(response), WireStatus::kOk);
  CloseFd(fd.value());
}

TEST_F(ServeServerTest, TruncatedPayloadIsAnsweredProtocolError) {
  StartServer();
  auto fd = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(fd.ok());
  // A checksum-valid Search frame whose payload is one truncated string.
  std::vector<uint8_t> payload;
  wire::PutU16(&payload, 500);  // name length prefix with no body
  const auto frame = EncodeFrame(OpCode::kSearch, 31, payload);
  ASSERT_TRUE(WriteFull(fd.value(), frame.data(), frame.size()).ok());
  FrameHeader header;
  std::vector<uint8_t> response;
  ASSERT_TRUE(ReadRawFrame(fd.value(), &header, &response).ok());
  EXPECT_EQ(StatusOf(response), WireStatus::kProtocolError);
  CloseFd(fd.value());
}

TEST_F(ServeServerTest, MidFrameDisconnectLeavesPeersUnaffected) {
  ServerOptions options;
  options.coalescer.window_us = 100000;
  StartServer(options);

  // Peer A dies twice over: once mid-frame, once with a request in the
  // coalescer window whose response will hit a closed socket.
  {
    auto fd = ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(fd.ok());
    const auto frame = EncodeFrame(OpCode::kPing, 41, {});
    ASSERT_TRUE(WriteFull(fd.value(), frame.data(), 10).ok());
    CloseFd(fd.value());  // disconnect mid-header
  }
  auto dying = MakeClient();
  const auto q = Query();
  ASSERT_TRUE(dying->SendSearch("main", q.data(), q.size(), {}).ok());
  dying.reset();  // gone before its coalesced batch dispatches

  auto client = MakeClient();
  auto reply = client->Search("main", q.data(), q.size(), TopK(3));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().response.neighbors.size(), 3u);
  EXPECT_GE(server_->Stats().protocol_errors, 1u);
}

TEST_F(ServeServerTest, ShutdownDrainsHeldRequests) {
  ServerOptions options;
  options.coalescer.window_us = 300000;
  StartServer(options);
  auto client = MakeClient();

  const auto q = Query();
  ASSERT_TRUE(client->SendSearch("main", q.data(), q.size(), {}).ok());
  // Give the reader time to admit the request into the window.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Shutdown();  // must flush the window, not abandon the request

  auto got = client->ReceiveSearchReply();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.value().status.ok()) << got.value().status.ToString();
  // After shutdown the server side is closed.
  EXPECT_FALSE(client->Ping().ok());
  server_->Shutdown();  // idempotent
}

TEST(ServeServerStartTest, RejectsBadCollectionSets) {
  auto collection = SmallCollection();
  EXPECT_EQ(Server::Start({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Server::Start({{"", collection.get()}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Server::Start({{"a", nullptr}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Server::Start({{"a", collection.get()},
                           {"a", collection.get()}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dblsh::serve
