// Quickstart: serve a dataset through a Collection — the façade that owns
// the vectors and any number of ANN indexes over them — then upsert,
// search (with and without a filter), and delete.
//
//   ./quickstart
//
#include <cstdio>
#include <memory>

#include "core/collection.h"
#include "dataset/ground_truth.h"
#include "dataset/synthetic.h"

int main() {
  using namespace dblsh;

  // 1. Get a dataset. Any row-major float matrix works; .fvecs/.bvecs
  //    readers live in util/vecs.h. Here: 20k clustered 64-d points.
  ClusteredSpec spec;
  spec.n = 20000;
  spec.dim = 64;
  spec.clusters = 32;
  auto data = std::make_unique<FloatMatrix>(GenerateClustered(spec));

  // 2. Build a collection from a spec string: one DB-LSH index (the
  //    paper's method, updatable in place) plus an exact LinearScan slot
  //    for oracle checks. Defaults follow the paper (c = 1.5, w0 = 4c^2,
  //    L = 5, K = 10); any parameter is overridable via key=value — run
  //    `dblsh_tool methods` for the registry, and add name= /
  //    rebuild_threshold= per index for collection-level control.
  auto made = Collection::FromSpec("collection: DB-LSH,c=1.5; LinearScan",
                                   std::move(data));
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 1;
  }
  Collection& collection = *made.value();
  std::printf("Collection: %zu vectors x %zu dims, indexes:\n",
              collection.size(), collection.dim());
  for (const auto& info : collection.Indexes()) {
    std::printf("  %-12s updatable=%d concurrent_reads=%d\n",
                info.name.c_str(), info.supports_updates,
                info.concurrent_queries);
  }

  // 3. Upsert a new vector. The collection assigns the id, stores the
  //    vector, and makes it visible to every index transactionally.
  const FloatMatrix snapshot = collection.Snapshot();
  std::vector<float> vec(snapshot.row(123), snapshot.row(123) + 64);
  vec[0] += 0.25f;
  auto upserted = collection.Upsert(vec.data(), vec.size());
  if (!upserted.ok()) {
    std::fprintf(stderr, "%s\n", upserted.status().ToString().c_str());
    return 1;
  }
  std::printf("\nUpserted new vector as id %u (epoch %llu)\n",
              upserted.value(),
              static_cast<unsigned long long>(collection.epoch()));

  // 4. Search. Routed to the best-capable index by default; per-query
  //    overrides (k, candidate budget, filters) ride on the request.
  QueryRequest request;
  request.k = 10;
  auto response = collection.Search(vec.data(), request);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  std::printf("\nTop-10 ANN of the upserted vector "
              "(%zu candidates verified, %zu rounds):\n",
              response.value().stats.candidates_verified,
              response.value().stats.rounds);
  const auto exact = ExactKnn(collection.Snapshot(), vec.data(), 10);
  for (size_t i = 0; i < response.value().neighbors.size(); ++i) {
    const Neighbor& nb = response.value().neighbors[i];
    std::printf("  #%zu: id=%u dist=%.4f (exact #%zu dist=%.4f)\n", i + 1,
                nb.id, nb.dist, i + 1, exact[i].dist);
  }

  // 5. Filtered search: exclude the vector itself — the filter is honored
  //    by every index in the collection, exact or approximate.
  request.filter = QueryFilter::Deny({upserted.value()});
  auto filtered = collection.Search(vec.data(), request);
  if (!filtered.ok()) {
    std::fprintf(stderr, "%s\n", filtered.status().ToString().c_str());
    return 1;
  }
  std::printf("\nWith Deny({%u}): top hit is now id=%u dist=%.4f\n",
              upserted.value(), filtered.value().neighbors[0].id,
              filtered.value().neighbors[0].dist);

  // 6. Delete. The id disappears from every index atomically.
  if (Status s = collection.Delete(upserted.value()); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("Deleted id %u; collection back to %zu vectors.\n",
              upserted.value(), collection.size());
  return 0;
}
