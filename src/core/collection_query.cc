// The Collection read path: routing, the one serve path every shard
// search takes (route, inflate k, search, re-rank), the exact fan-out
// merge, and Search / SearchBatch on top of them.
#include <algorithm>
#include <cmath>
#include <shared_mutex>
#include <utility>

#include "core/collection.h"
#include "util/top_k_heap.h"

namespace dblsh {

int Collection::RouteLocked(const Shard& shard,
                            const std::string& index_name,
                            Status* why) const {
  if (!index_name.empty()) {
    for (size_t i = 0; i < shard.slots.size(); ++i) {
      if (shard.slots[i].name != index_name) continue;
      if (!shard.slots[i].built) {
        *why = Status::InvalidArgument(
            "collection index \"" + index_name +
            "\" is not built yet (collection was empty when it was added)");
        return -1;
      }
      return static_cast<int>(i);
    }
    *why = Status::NotFound("collection has no index named \"" + index_name +
                            "\"");
    return -1;
  }
  // Best-capable routing: the freshest built slot, insertion order as the
  // tie-break (so callers list their preferred method first).
  int best = -1;
  for (size_t i = 0; i < shard.slots.size(); ++i) {
    if (!shard.slots[i].built) continue;
    if (best < 0 || shard.slots[i].staleness <
                        shard.slots[static_cast<size_t>(best)].staleness) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) {
    *why = Status::InvalidArgument(
        shard.slots.empty() ? "collection has no indexes; AddIndex first"
                            : "collection has no built index yet; Upsert "
                              "data first");
  }
  return best;
}

const QueryRequest& Collection::ShardRequest(size_t shard_index,
                                             const QueryRequest& request,
                                             QueryRequest* local) const {
  if (request.filter.empty() && !quantized_) return request;
  // Only k and the filter change — keep the scalar overrides in sync with
  // QueryRequest's field list. Truncating back to k per shard (re-rank)
  // keeps the fan-out merge exact: the re-ranked list is the shard's true
  // (store-exact) top-k.
  local->k = quantized_ ? request.k * rerank_ : request.k;
  local->candidate_budget = request.candidate_budget;
  local->r0 = request.r0;
  if (!request.filter.empty()) {
    // The shard's index speaks local ids; the caller's filter, global ones.
    const QueryFilter* global = &request.filter;  // outlives the search
    local->filter = QueryFilter::Of([this, global, shard_index](uint32_t lid) {
      return global->Admits(GlobalId(shard_index, lid));
    });
  }
  return *local;
}

void Collection::SearchShard(size_t shard_index, const float* query,
                             const QueryRequest& request,
                             const std::string& index_name,
                             ShardAnswer* out) const {
  const Shard& shard = *shards_[shard_index];
  std::shared_lock lock(shard.mutex);
  const int route = RouteLocked(shard, index_name, &out->status);
  if (route < 0) {
    // Slot lists are identical across shards, but an empty shard's slots
    // may still await their lazy first build: such a shard has nothing to
    // contribute, so its error stands only if no shard can serve.
    out->unroutable_empty = shard.data->live_rows() == 0;
    return;
  }
  const Slot& slot = shard.slots[static_cast<size_t>(route)];
  QueryRequest local;
  out->response =
      slot.index->Search(query, ShardRequest(shard_index, request, &local));
  if (quantized_) RerankLocked(shard, query, request.k, &out->response);
}

void Collection::RerankLocked(const Shard& shard, const float* query,
                              size_t k, QueryResponse* response) const {
  // Exact pass over the (inflated) candidate list: rescore with the raw
  // fp32 query against each row's stored codes — no query-quantization
  // error — then keep the best k under the same (dist, id) order the
  // TopKHeap uses, so ties resolve identically to an exact index.
  for (Neighbor& neighbor : response->neighbors) {
    neighbor.dist = std::sqrt(
        shard.store->ExactL2Squared(query, neighbor.id));
  }
  std::sort(response->neighbors.begin(), response->neighbors.end());
  if (response->neighbors.size() > k) response->neighbors.resize(k);
}

Result<QueryResponse> Collection::MergeShardAnswers(
    std::span<const ShardAnswer> answers, size_t k) const {
  size_t unroutable = 0;
  for (const ShardAnswer& answer : answers) {
    if (answer.status.ok()) continue;
    if (!answer.unroutable_empty) return answer.status;
    ++unroutable;
  }
  if (unroutable == answers.size()) return answers[0].status;
  QueryResponse merged;
  TopKHeap heap(k);
  for (size_t s = 0; s < answers.size(); ++s) {
    const QueryResponse& response = answers[s].response;
    for (const Neighbor& neighbor : response.neighbors) {
      // Exact merge: within a shard, local id order equals global id
      // order, so each shard's top-k (local tie-break) contains every
      // global top-k member of that shard; pushing with global ids
      // reproduces the single-shard (dist, id) tie-break exactly.
      heap.Push(neighbor.dist, GlobalId(s, neighbor.id));
    }
    merged.stats.candidates_verified += response.stats.candidates_verified;
    merged.stats.points_accessed += response.stats.points_accessed;
    merged.stats.rounds += response.stats.rounds;
    merged.stats.window_queries += response.stats.window_queries;
  }
  merged.neighbors = heap.TakeSorted();
  return merged;
}

Result<QueryResponse> Collection::Search(const float* query,
                                         const QueryRequest& request,
                                         const std::string& index_name) const {
  // One k-NN task per shard (ParallelFor runs a single one inline on the
  // caller), merged exactly.
  std::vector<ShardAnswer> answers(shards_.size());
  executor_->ParallelFor(answers.size(), [&](size_t s) {
    SearchShard(s, query, request, index_name, &answers[s]);
  });
  return MergeShardAnswers(answers, request.k);
}

Result<std::vector<QueryResponse>> Collection::SearchBatch(
    const FloatMatrix& queries, const QueryRequest& request,
    const std::string& index_name, size_t num_threads) const {
  if (!queries.empty() && queries.cols() != dim_) {
    return Status::InvalidArgument(
        "SearchBatch: queries have dimension " +
        std::to_string(queries.cols()) + ", collection serves " +
        std::to_string(dim_));
  }
  const size_t num_shards = shards_.size();
  const size_t q_count = queries.rows();
  if (num_threads == 0) num_threads = exec::HardwareConcurrency();
  // Grid fan-out on the collection's executor: every (query, shard) cell
  // is an independent SearchShard task, so a slow shard never stalls the
  // other shards' progress on later queries, and a batch answers exactly
  // what per-row Search calls would.
  std::vector<ShardAnswer> cells(q_count * num_shards);
  executor_->ParallelFor(
      cells.size(),
      [&](size_t cell) {
        SearchShard(cell % num_shards, queries.row(cell / num_shards),
                    request, index_name, &cells[cell]);
      },
      num_threads);
  std::vector<QueryResponse> out;
  out.reserve(q_count);
  const std::span<const ShardAnswer> grid(cells);
  for (size_t q = 0; q < q_count; ++q) {
    auto merged =
        MergeShardAnswers(grid.subspan(q * num_shards, num_shards), request.k);
    if (!merged.ok()) return merged.status();
    out.push_back(std::move(merged).value());
  }
  return out;
}

}  // namespace dblsh
