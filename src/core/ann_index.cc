#include "core/ann_index.h"

#include "core/verify.h"
#include "exec/task_executor.h"

namespace dblsh {

Status AnnIndex::Insert(uint32_t /*id*/) {
  return Status::Unimplemented(
      Name() +
      " does not support dynamic updates (SupportsUpdates() == false); "
      "rebuild the index to absorb new points");
}

Status AnnIndex::RebindData(const FloatMatrix* data) {
  if (data_ == nullptr) {
    return Status::InvalidArgument(Name() +
                                   ": RebindData requires a built index");
  }
  if (data == nullptr) {
    return Status::InvalidArgument(Name() + ": RebindData target is null");
  }
  if (data->rows() != data_->rows() || data->cols() != data_->cols()) {
    return Status::InvalidArgument(
        Name() + ": RebindData target shape " + std::to_string(data->rows()) +
        "x" + std::to_string(data->cols()) + " does not match the built " +
        std::to_string(data_->rows()) + "x" + std::to_string(data_->cols()));
  }
  data_ = data;
  return Status::OK();
}

Status AnnIndex::Erase(uint32_t /*id*/) {
  return Status::Unimplemented(
      Name() +
      " does not support dynamic updates (SupportsUpdates() == false); "
      "tombstone the row with FloatMatrix::EraseRow — the shared "
      "verification path already keeps it out of this index's results — "
      "and rebuild before recycling the slot");
}

QueryResponse AnnIndex::Search(const float* query,
                               const QueryRequest& request) const {
  QueryResponse response;
  // Push the request's filter down into the shared verification path for
  // the duration of the per-method Query() hook (thread-local, so batched
  // workers each install their own).
  ScopedQueryFilter filter_scope(&request.filter);
  response.neighbors = Query(query, request.k, &response.stats);
  return response;
}

std::vector<QueryResponse> AnnIndex::QueryBatch(const FloatMatrix& queries,
                                                const QueryRequest& request,
                                                size_t num_threads) const {
  std::vector<QueryResponse> responses(queries.rows());
  if (num_threads == 0) num_threads = exec::HardwareConcurrency();
  exec::TaskExecutor::Default().ParallelFor(
      responses.size(),
      [&](size_t q) { responses[q] = Search(queries.row(q), request); },
      num_threads);
  return responses;
}

}  // namespace dblsh
