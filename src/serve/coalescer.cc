#include "serve/coalescer.h"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>

namespace dblsh::serve {

namespace {

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

bool Coalescer::Key::operator<(const Key& other) const {
  return std::tie(collection, k, candidate_budget, r0_bits) <
         std::tie(other.collection, other.k, other.candidate_budget,
                  other.r0_bits);
}

Coalescer::Coalescer(exec::TaskExecutor* flush_pool,
                     exec::TaskExecutor* query_pool,
                     const CoalescerOptions& options)
    : flush_pool_(flush_pool), query_pool_(query_pool), options_(options) {
  flush_pool_->Schedule([this] { FlusherLoop(); });
}

Coalescer::~Coalescer() {
  Drain();
  // Drain stopped intake and flushed; now wait for the flusher task to
  // observe draining_ and exit, so it cannot touch a destroyed *this.
  std::unique_lock lock(mutex_);
  drain_cv_.wait(lock, [&] { return flusher_exited_; });
}

Status Coalescer::Submit(Collection* collection, std::vector<float> query,
                         const QueryRequest& request,
                         Clock::time_point deadline, Callback callback) {
  if (collection == nullptr) {
    return Status::InvalidArgument("Submit: null collection");
  }
  if (query.size() != collection->dim()) {
    return Status::InvalidArgument(
        "Submit: query has " + std::to_string(query.size()) +
        " dims, collection serves " + std::to_string(collection->dim()));
  }
  const Clock::time_point now = Clock::now();
  if (deadline <= now) {
    std::lock_guard lock(mutex_);
    ++stats_.rejected_deadline;
    return Status::DeadlineExceeded("deadline expired before admission");
  }

  Pending pending{std::move(query), request, deadline, std::move(callback)};
  const bool bypass = !request.filter.empty();
  Batch full;  // dispatched outside the lock when the cap is hit
  Key key{collection, request.k, request.candidate_budget,
          BitsOf(request.r0)};
  {
    std::lock_guard lock(mutex_);
    if (draining_) return Status::Unavailable("coalescer draining");
    if (inflight_ >= options_.max_inflight) {
      ++stats_.shed_overload;
      return Status::Unavailable(
          "queue full (" + std::to_string(inflight_) + " in flight); retry");
    }
    ++inflight_;
    ++stats_.admitted;
    if (bypass) {
      // A filtered request cannot share the batch-wide QueryRequest:
      // dispatch it alone, no window hold.
      full.entries.push_back(std::move(pending));
    } else {
      Batch& batch = batches_[key];
      if (batch.entries.empty()) {
        batch.flush_at = now + std::chrono::microseconds(options_.window_us);
      }
      // Flushing early at a near deadline gives the query a chance to
      // execute inside its budget instead of expiring in the window.
      batch.flush_at = std::min(batch.flush_at, deadline);
      batch.entries.push_back(std::move(pending));
      if (batch.entries.size() >= options_.max_batch) {
        full = std::move(batch);
        batches_.erase(key);
      } else {
        flusher_cv_.notify_one();  // re-arm the flusher's wait deadline
      }
    }
  }
  if (!full.entries.empty()) DispatchBatch(collection, std::move(full));
  return Status::OK();
}

Status Coalescer::SubmitBatch(
    Collection* collection, FloatMatrix queries, const QueryRequest& request,
    Clock::time_point deadline,
    std::function<void(const Status&, std::vector<QueryResponse>)> callback) {
  if (collection == nullptr) {
    return Status::InvalidArgument("SubmitBatch: null collection");
  }
  if (queries.rows() == 0) {
    return Status::InvalidArgument("SubmitBatch: empty batch");
  }
  if (queries.cols() != collection->dim()) {
    return Status::InvalidArgument(
        "SubmitBatch: queries have " + std::to_string(queries.cols()) +
        " dims, collection serves " + std::to_string(collection->dim()));
  }
  const uint64_t n = queries.rows();
  if (deadline <= Clock::now()) {
    std::lock_guard lock(mutex_);
    stats_.rejected_deadline += n;
    return Status::DeadlineExceeded("deadline expired before admission");
  }
  {
    std::lock_guard lock(mutex_);
    if (draining_) return Status::Unavailable("coalescer draining");
    if (inflight_ + n > options_.max_inflight) {
      stats_.shed_overload += n;
      return Status::Unavailable(
          "queue full (" + std::to_string(inflight_) + " in flight); retry");
    }
    inflight_ += n;
    stats_.admitted += n;
  }
  auto cb = std::make_shared<
      std::function<void(const Status&, std::vector<QueryResponse>)>>(
      std::move(callback));
  query_pool_->Schedule([this, collection, queries = std::move(queries),
                         request, deadline, cb, n]() mutable {
    if (Clock::now() >= deadline) {
      {
        std::lock_guard lock(mutex_);
        stats_.rejected_deadline += n;
      }
      (*cb)(Status::DeadlineExceeded("deadline expired before execution"),
            {});
      FinishQueries(n);
      return;
    }
    auto got = collection->SearchBatch(queries, request);
    {
      std::lock_guard lock(mutex_);
      ++stats_.batches_dispatched;
      stats_.batched_queries += n;
      stats_.max_batch_size = std::max<uint64_t>(stats_.max_batch_size, n);
    }
    if (got.ok()) {
      (*cb)(Status::OK(), std::move(got).value());
    } else {
      (*cb)(got.status(), {});
    }
    FinishQueries(n);
  });
  return Status::OK();
}

void Coalescer::FlusherLoop() {
  std::unique_lock lock(mutex_);
  while (true) {
    if (draining_ && batches_.empty()) break;
    // Earliest flush obligation across forming batches.
    Clock::time_point next = Clock::time_point::max();
    for (const auto& [key, batch] : batches_) {
      next = std::min(next, batch.flush_at);
    }
    if (next == Clock::time_point::max()) {
      flusher_cv_.wait(lock,
                       [&] { return draining_ || !batches_.empty(); });
      continue;
    }
    if (Clock::now() < next && !draining_) {
      flusher_cv_.wait_until(lock, next);
      continue;
    }
    // Collect everything due (everything, when draining).
    std::vector<std::pair<Collection*, Batch>> due;
    const Clock::time_point now = Clock::now();
    for (auto it = batches_.begin(); it != batches_.end();) {
      if (draining_ || it->second.flush_at <= now) {
        due.emplace_back(it->first.collection, std::move(it->second));
        it = batches_.erase(it);
      } else {
        ++it;
      }
    }
    lock.unlock();
    for (auto& [collection, batch] : due) {
      DispatchBatch(collection, std::move(batch));
    }
    lock.lock();
  }
  flusher_exited_ = true;
  drain_cv_.notify_all();
}

void Coalescer::DispatchBatch(Collection* collection, Batch batch) {
  auto shared = std::make_shared<Batch>(std::move(batch));
  query_pool_->Schedule([this, collection, shared]() mutable {
    ExecuteBatch(collection, std::move(*shared));
  });
}

void Coalescer::ExecuteBatch(Collection* collection, Batch batch) {
  // Deadline gate: expired entries complete with the typed rejection and
  // never touch the index; their batch peers execute normally. They are
  // counted before any is answered, so a client that has its rejection
  // already sees it in Stats.
  const Clock::time_point now = Clock::now();
  std::vector<Pending> live;
  std::vector<Pending> expired;
  live.reserve(batch.entries.size());
  for (Pending& entry : batch.entries) {
    (entry.deadline <= now ? expired : live).push_back(std::move(entry));
  }
  if (!expired.empty()) {
    {
      std::lock_guard lock(mutex_);
      stats_.rejected_deadline += expired.size();
    }
    for (Pending& entry : expired) {
      entry.callback(
          Status::DeadlineExceeded("deadline expired before execution"),
          QueryResponse{}, 0);
    }
  }
  if (live.empty()) {
    FinishQueries(batch.entries.size());
    return;
  }

  const auto batch_size = static_cast<uint32_t>(live.size());
  {
    std::lock_guard lock(mutex_);
    ++stats_.batches_dispatched;
    stats_.batched_queries += batch_size;
    stats_.max_batch_size =
        std::max<uint64_t>(stats_.max_batch_size, batch_size);
  }

  if (live.size() == 1) {
    Pending& entry = live.front();
    auto got = collection->Search(entry.query.data(), entry.request);
    if (got.ok()) {
      entry.callback(Status::OK(), std::move(got).value(), 1);
    } else {
      entry.callback(got.status(), QueryResponse{}, 1);
    }
  } else {
    FloatMatrix queries(live.size(), live.front().query.size());
    for (size_t i = 0; i < live.size(); ++i) {
      std::copy(live[i].query.begin(), live[i].query.end(),
                queries.mutable_row(i));
    }
    // Entries in one batch share (k, budget, r0) by construction and
    // carry no filter, so the first request speaks for all of them.
    auto got = collection->SearchBatch(queries, live.front().request);
    if (got.ok()) {
      std::vector<QueryResponse>& responses = got.value();
      for (size_t i = 0; i < live.size(); ++i) {
        live[i].callback(Status::OK(), std::move(responses[i]), batch_size);
      }
    } else {
      for (Pending& entry : live) {
        entry.callback(got.status(), QueryResponse{}, batch_size);
      }
    }
  }
  FinishQueries(batch.entries.size());
}

void Coalescer::FinishQueries(uint64_t n) {
  std::lock_guard lock(mutex_);
  inflight_ -= n;
  if (inflight_ == 0) drain_cv_.notify_all();
}

void Coalescer::Drain() {
  {
    std::lock_guard lock(mutex_);
    draining_ = true;
    flusher_cv_.notify_all();
  }
  // Wait for every admitted query to complete, lending this thread to the
  // query pool so a saturated (or width-1) pool cannot starve the very
  // batches being awaited.
  std::unique_lock lock(mutex_);
  while (inflight_ > 0 || !batches_.empty()) {
    lock.unlock();
    if (!query_pool_->RunOnePendingTask()) {
      lock.lock();
      drain_cv_.wait_for(lock, std::chrono::milliseconds(1));
      lock.unlock();
    }
    lock.lock();
  }
}

CoalescerStats Coalescer::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

size_t Coalescer::inflight() const {
  std::lock_guard lock(mutex_);
  return inflight_;
}

}  // namespace dblsh::serve
