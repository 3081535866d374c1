#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "core/db_lsh.h"
#include "core/index_factory.h"
#include "dataset/synthetic.h"
#include "eval/runner.h"

namespace dblsh {
namespace {

/// Small shared workload: every registered method must build on it and
/// answer batched queries in well under a second.
class FactoryRoundTripTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new eval::Workload(eval::MakeWorkload(
        "factory",
        GenerateClustered({.n = 1500, .dim = 24, .clusters = 12, .seed = 3}),
        /*num_queries=*/4, /*k=*/5));
  }
  static void TearDownTestSuite() {
    delete workload_;
    workload_ = nullptr;
  }

  static eval::Workload* workload_;
};

eval::Workload* FactoryRoundTripTest::workload_ = nullptr;

TEST_F(FactoryRoundTripTest, AllTwelveMethodsAreRegistered) {
  const auto methods = IndexFactory::ListMethods();
  const std::set<std::string> names(methods.begin(), methods.end());
  const std::set<std::string> expected = {
      "DB-LSH",  "FB-LSH",     "E2LSH", "LCCS-LSH", "LSB-Forest",
      "LinearScan", "MultiProbe", "PM-LSH", "QALSH", "R2LSH",
      "SRS",     "VHP"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(methods.size(), names.size()) << "duplicate display names";
}

TEST_F(FactoryRoundTripTest, EveryMethodRoundTripsThroughBatchQueries) {
  for (const std::string& name : IndexFactory::ListMethods()) {
    SCOPED_TRACE(name);
    auto made = IndexFactory::Make(name);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const std::unique_ptr<AnnIndex> index = std::move(made).value();
    ASSERT_TRUE(index->Build(&workload_->data).ok());

    QueryRequest request;
    request.k = workload_->k;
    const auto responses = index->QueryBatch(workload_->queries, request);
    ASSERT_EQ(responses.size(), workload_->queries.rows());
    for (const QueryResponse& response : responses) {
      EXPECT_FALSE(response.neighbors.empty());
      EXPECT_LE(response.neighbors.size(), workload_->k);
      EXPECT_TRUE(std::is_sorted(response.neighbors.begin(),
                                 response.neighbors.end()));
      EXPECT_GT(response.stats.candidates_verified, 0u);
      EXPECT_GT(response.stats.points_accessed, 0u);
    }
  }
}

TEST_F(FactoryRoundTripTest, DescribeCoversEveryMethod) {
  for (const std::string& name : IndexFactory::ListMethods()) {
    auto description = IndexFactory::Describe(name);
    ASSERT_TRUE(description.ok()) << name;
    EXPECT_FALSE(description.value().empty()) << name;
  }
  EXPECT_FALSE(IndexFactory::Describe("NoSuchMethod").ok());
}

TEST_F(FactoryRoundTripTest, PaperLineupSpecsAllParse) {
  const auto specs = eval::PaperMethodSpecs(workload_->data.rows());
  ASSERT_FALSE(specs.empty());
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    EXPECT_TRUE(IndexFactory::Make(spec).ok());
  }
  const auto methods = eval::MakePaperMethods(workload_->data.rows());
  EXPECT_EQ(methods.size(), specs.size());
}

TEST(IndexFactoryTest, NameMatchingIgnoresCaseAndSeparators) {
  for (const std::string& spelling :
       {std::string("db-lsh"), std::string("DB_LSH"), std::string("dblsh"),
        std::string("Db-Lsh")}) {
    auto made = IndexFactory::Make(spelling);
    ASSERT_TRUE(made.ok()) << spelling;
    EXPECT_EQ(made.value()->Name(), "DB-LSH") << spelling;
  }
}

TEST(IndexFactoryTest, SpecOverridesReachTheParams) {
  auto made = IndexFactory::Make("DB-LSH, c=2.0, l=3, t=17, seed=9");
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const auto* db = dynamic_cast<const DbLsh*>(made.value().get());
  ASSERT_NE(db, nullptr);
  EXPECT_DOUBLE_EQ(db->params().c, 2.0);
  EXPECT_EQ(db->params().l, 3u);
  EXPECT_EQ(db->params().t, 17u);
  EXPECT_EQ(db->params().seed, 9u);
}

TEST(IndexFactoryTest, FbLshSizeHintDrivesThePaperLRule) {
  auto small = IndexFactory::Make("FB-LSH,n=50000");
  auto large = IndexFactory::Make("FB-LSH,n=200000");
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_EQ(dynamic_cast<const DbLsh*>(small.value().get())->params().l, 10u);
  EXPECT_EQ(dynamic_cast<const DbLsh*>(large.value().get())->params().l, 12u);
  EXPECT_EQ(large.value()->Name(), "FB-LSH");
  // FB-LSH is the one spelling of fixed-grid bucketing; there is no key.
  EXPECT_FALSE(IndexFactory::Make("FB-LSH,bucketing=dynamic").ok());
}

TEST(IndexFactoryTest, MalformedSpecsReturnStatusErrors) {
  // Unknown method, with the registry listed in the message.
  auto unknown = IndexFactory::Make("HNSW,m=16");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("DB-LSH"), std::string::npos);

  for (const char* spec : {
           "",                    // no method name
           "c=1.5,DB-LSH",        // key=value before the name
           "DB-LSH,c",            // missing '='
           "DB-LSH,=1.5",         // empty key
           "DB-LSH,c=",           // empty value
           "DB-LSH,c=1.5,c=2.0",  // duplicate key
           "DB-LSH,c=abc",        // unparsable double
           "DB-LSH,l=-3",         // negative for unsigned
           "DB-LSH,zzz=1",        // unknown key
           "DB-LSH,bucketing=fixed",      // retired key: use FB-LSH
           "LinearScan,c=1.5",    // key on a parameterless method
           "PM-LSH,t_factor=x",   // unparsable double, baseline binder
           "DB-LSH,backend=kdtree",       // retired key: R*-trees only
           "DB-LSH,c=nan",                // non-finite doubles
           "DB-LSH,w0=inf",
           "DB-LSH,early_stop_slack=nan",
           "PM-LSH,c=inf",
           "DB-LSH,l=99999999999999999999999",  // past 64 bits
           "E2LSH,l=99999999999999999999999",
       }) {
    SCOPED_TRACE(spec);
    auto made = IndexFactory::Make(spec);
    ASSERT_FALSE(made.ok());
    EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument);
  }

  // A sizing key fits size_t, but what Build sizes from it does not: the
  // l*k*dim floats of a projection bank, E2LSH's levels*l tables,
  // LSB-Forest's l trees or its k*bits Z-code (2^61 * 8 wraps to 0), or
  // (2^63 on one column) more than one vector can hold, which also makes
  // DB-LSH's 2*l wrap. Build refuses each instead of sizing a wrapped or
  // impossible allocation.
  const FloatMatrix data =
      GenerateClustered({.n = 500, .dim = 16, .clusters = 4, .seed = 6});
  const FloatMatrix column =
      GenerateClustered({.n = 500, .dim = 1, .clusters = 4, .seed = 6});
  for (const auto& [spec, rows] :
       {std::pair{"DB-LSH,l=18446744073709551615", &data},
        std::pair{"DB-LSH,l=9223372036854775808,k=1", &column},
        std::pair{"E2LSH,l=18446744073709551615", &data},
        std::pair{"E2LSH,k=18446744073709551615", &data},
        std::pair{"E2LSH,levels=18446744073709551615", &data},
        std::pair{"MultiProbe,l=18446744073709551615", &data},
        std::pair{"MultiProbe,k=18446744073709551615", &data},
        std::pair{"PM-LSH,m=18446744073709551615", &data},
        std::pair{"QALSH,m=18446744073709551615", &data},
        std::pair{"R2LSH,m=18446744073709551615", &data},
        std::pair{"SRS,m=18446744073709551615", &data},
        std::pair{"VHP,m=18446744073709551615", &data},
        std::pair{"LSB-Forest,l=18446744073709551615", &data},
        std::pair{"LSB-Forest,k=2305843009213693952", &data}}) {
    SCOPED_TRACE(spec);
    auto huge = IndexFactory::Make(spec);
    ASSERT_TRUE(huge.ok()) << huge.status().ToString();
    const Status built = huge.value()->Build(rows);
    EXPECT_EQ(built.code(), StatusCode::kInvalidArgument) << built.ToString();
  }
}

TEST(QueryApiTest, SearchFoldsStatsIntoTheResponse) {
  const FloatMatrix data =
      GenerateClustered({.n = 800, .dim = 16, .clusters = 8, .seed = 5});
  auto made = IndexFactory::Make("DB-LSH");
  ASSERT_TRUE(made.ok());
  ASSERT_TRUE(made.value()->Build(&data).ok());

  QueryRequest request;
  request.k = 7;
  const QueryResponse response = made.value()->Search(data.row(0), request);
  ASSERT_FALSE(response.neighbors.empty());
  EXPECT_EQ(response.neighbors[0].id, 0u);  // the point itself
  EXPECT_GT(response.stats.candidates_verified, 0u);
  EXPECT_GT(response.stats.rounds, 0u);
  EXPECT_GT(response.stats.window_queries, 0u);
}

TEST(QueryApiTest, PerQueryCandidateBudgetOverrideIsHonored) {
  const FloatMatrix data =
      GenerateClustered({.n = 3000, .dim = 24, .clusters = 6, .seed = 11});
  auto made = IndexFactory::Make("DB-LSH,t=200");
  ASSERT_TRUE(made.ok());
  ASSERT_TRUE(made.value()->Build(&data).ok());

  std::vector<float> query(data.row(42), data.row(42) + data.cols());
  query[0] += 10.f;  // off-manifold so the budget, not certification, stops

  QueryRequest tight;
  tight.k = 5;
  tight.candidate_budget = 2;
  QueryRequest wide;
  wide.k = 5;
  wide.candidate_budget = 200;
  const auto tight_response = made.value()->Search(query.data(), tight);
  const auto wide_response = made.value()->Search(query.data(), wide);
  // Budget 2tL+k: t=2 caps verification far below t=200's cap.
  EXPECT_LT(tight_response.stats.candidates_verified,
            wide_response.stats.candidates_verified);
  const auto* db = dynamic_cast<const DbLsh*>(made.value().get());
  EXPECT_LE(tight_response.stats.candidates_verified,
            2 * tight.candidate_budget * db->params().l + tight.k);
}

// Every method's read path is safe to run concurrently: batched rows run
// on the executor's threads, several at once, and must reproduce the
// single-threaded answer id for id and distance for distance. TSan runs
// this, so a method that kept per-query state in the index would fail.
// 300 rows keep the batch's threads busy long enough to overlap: with a
// few dozen, one thread can drain a fast method's whole batch before the
// others wake, and TSan then sees no race.
TEST(QueryApiTest, BatchMatchesSequentialSearch) {
  const FloatMatrix data =
      GenerateClustered({.n = 1200, .dim = 16, .clusters = 10, .seed = 21});
  FloatMatrix queries;
  for (size_t i = 0; i < 300; ++i) {
    queries.AppendRow(data.row(i * 4), data.cols());
  }
  const std::vector<std::string> methods = IndexFactory::ListMethods();
  ASSERT_EQ(methods.size(), 12u);
  for (const std::string& spec : methods) {
    SCOPED_TRACE(spec);
    auto made = IndexFactory::Make(spec);
    ASSERT_TRUE(made.ok());
    QueryRequest request;
    request.k = 9;
    // Before Build, every query path answers empty instead of crashing.
    EXPECT_TRUE(made.value()->Query(data.row(0), 9).empty());
    EXPECT_TRUE(made.value()->Search(data.row(0), request).neighbors.empty());
    const auto unbuilt = made.value()->QueryBatch(queries, request, 4);
    ASSERT_EQ(unbuilt.size(), queries.rows());
    for (const QueryResponse& response : unbuilt) {
      EXPECT_TRUE(response.neighbors.empty());
    }
    ASSERT_TRUE(made.value()->Build(&data).ok());
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(threads);
      const auto batched =
          made.value()->QueryBatch(queries, request, threads);
      ASSERT_EQ(batched.size(), queries.rows());
      for (size_t q = 0; q < queries.rows(); ++q) {
        const auto single = made.value()->Search(queries.row(q), request);
        EXPECT_EQ(batched[q].neighbors, single.neighbors) << "query " << q;
      }
    }
  }
}

// The QueryRequest composition contract (core/query.h): override fields
// are independent, and zero/empty always means "the index's configured
// default". A request that spells the defaults out explicitly must
// round-trip to exactly the plain-Query() answer, field by field and all
// together.
TEST(QueryApiTest, RequestOverridesComposeAndZeroMeansDefault) {
  const FloatMatrix data =
      GenerateClustered({.n = 1500, .dim = 16, .clusters = 8, .seed = 33});
  auto made = IndexFactory::Make("DB-LSH,t=32");
  ASSERT_TRUE(made.ok());
  ASSERT_TRUE(made.value()->Build(&data).ok());
  const auto* db = dynamic_cast<const DbLsh*>(made.value().get());
  ASSERT_NE(db, nullptr);

  std::vector<float> query(data.row(99), data.row(99) + data.cols());
  query[0] += 0.5f;
  QueryRequest dflt;
  dflt.k = 8;
  const auto baseline = made.value()->Search(query.data(), dflt);

  // Zero / empty round-trips to the default, field by field.
  QueryRequest zeros;
  zeros.k = 8;
  zeros.candidate_budget = 0;
  zeros.r0 = 0.0;
  zeros.filter = QueryFilter();  // empty
  EXPECT_EQ(made.value()->Search(query.data(), zeros).neighbors,
            baseline.neighbors);
  QueryRequest empty_lists;
  empty_lists.k = 8;
  empty_lists.filter = QueryFilter::Deny({});  // empty list == empty filter
  EXPECT_TRUE(empty_lists.filter.empty());
  EXPECT_EQ(made.value()->Search(query.data(), empty_lists).neighbors,
            baseline.neighbors);

  // Spelling a default out explicitly composes to the same answer: an
  // explicit budget equal to the configured t is indistinguishable from 0.
  QueryRequest explicit_budget;
  explicit_budget.k = 8;
  explicit_budget.candidate_budget = db->params().t;
  EXPECT_EQ(made.value()->Search(query.data(), explicit_budget).neighbors,
            baseline.neighbors);

  // Each field keeps acting when the others stay at their defaults, and
  // they compose in one request: a filter plus a budget override applies
  // both (no field masks another).
  const uint32_t top = baseline.neighbors[0].id;
  QueryRequest filtered;
  filtered.k = 8;
  filtered.filter = QueryFilter::Deny({top});
  const auto without_top = made.value()->Search(query.data(), filtered);
  EXPECT_FALSE(std::any_of(
      without_top.neighbors.begin(), without_top.neighbors.end(),
      [top](const Neighbor& n) { return n.id == top; }));

  QueryRequest combined;
  combined.k = 8;
  combined.candidate_budget = db->params().t;  // explicit default
  combined.r0 = 0.0;                           // default
  combined.filter = QueryFilter::Deny({top});  // active
  const auto both = made.value()->Search(query.data(), combined);
  EXPECT_EQ(both.neighbors, without_top.neighbors);
  EXPECT_FALSE(std::any_of(
      both.neighbors.begin(), both.neighbors.end(),
      [top](const Neighbor& n) { return n.id == top; }));
}

// Regression: a restrictive allow-list must not disable DB-LSH's
// termination tests. With fewer admitted ids than k the heap never fills
// and the push budget never trips, so the coverage exit has to count
// filter-rejected candidates too — without that the radius ladder runs
// its full 256-round cap of ever-growing window scans.
TEST(QueryApiTest, RestrictiveFilterStillTerminatesTheRadiusLadder) {
  const FloatMatrix data =
      GenerateClustered({.n = 2000, .dim = 16, .clusters = 8, .seed = 44});
  auto made = IndexFactory::Make("DB-LSH,t=16");
  ASSERT_TRUE(made.ok());
  ASSERT_TRUE(made.value()->Build(&data).ok());

  QueryRequest request;
  request.k = 10;
  request.filter = QueryFilter::AllowOnly({7, 450, 1999});
  const auto response = made.value()->Search(data.row(0), request);
  // Exactly the admitted ids come back (3 < k), by ascending distance.
  ASSERT_EQ(response.neighbors.size(), 3u);
  for (const Neighbor& n : response.neighbors) {
    EXPECT_TRUE(n.id == 7 || n.id == 450 || n.id == 1999);
  }
  // The ladder stopped once every live point had been consumed (pushed or
  // filter-rejected), far short of the 256-round degenerate-input cap.
  EXPECT_LT(response.stats.rounds, 64u);
}

TEST(QueryApiTest, EmptyBatchIsFine) {
  const FloatMatrix data =
      GenerateClustered({.n = 500, .dim = 8, .clusters = 4, .seed = 1});
  auto made = IndexFactory::Make("LinearScan");
  ASSERT_TRUE(made.ok());
  ASSERT_TRUE(made.value()->Build(&data).ok());
  EXPECT_TRUE(made.value()->QueryBatch(FloatMatrix(), QueryRequest()).empty());
}

}  // namespace
}  // namespace dblsh
