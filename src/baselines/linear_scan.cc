#include "baselines/linear_scan.h"

#include "core/index_factory.h"
#include "core/verify.h"

namespace dblsh {

Status LinearScan::Build(const FloatMatrix* data) {
  if (data == nullptr || data->rows() == 0) {
    return Status::InvalidArgument("LinearScan requires a non-empty dataset");
  }
  data_ = data;
  return Status::OK();
}

Status LinearScan::Insert(uint32_t id) {
  if (data_ == nullptr) {
    return Status::InvalidArgument("Insert() requires a built index");
  }
  if (id >= data_->rows() || data_->IsDeleted(id)) {
    return Status::InvalidArgument(
        "Insert(" + std::to_string(id) +
        "): not a live row of the backing dataset (insert the vector with "
        "FloatMatrix::InsertRow first)");
  }
  return Status::OK();  // nothing to update: the scan reads rows live
}

Status LinearScan::Erase(uint32_t id) {
  if (data_ == nullptr) {
    return Status::InvalidArgument("Erase() requires a built index");
  }
  if (id >= data_->rows()) {
    return Status::NotFound("Erase(" + std::to_string(id) +
                            "): id was never indexed");
  }
  return Status::OK();  // tombstone filtering happens in VerifyCandidates
}

std::vector<Neighbor> LinearScan::Query(const float* query, size_t k,
                                        QueryStats* stats) const {
  if (data_ == nullptr) return {};
  TopKHeap heap(k);
  // Contiguous scan over all rows through the batched SIMD kernel;
  // candidates_verified is counted per push by the helper.
  VerifyCandidates(query, *data_, /*ids=*/nullptr, data_->rows(),
                   VerifyOptions(), &heap, stats);
  if (stats != nullptr) {
    stats->points_accessed += data_->rows();
  }
  return heap.TakeSorted();
}

DBLSH_REGISTER_INDEX(
    kRegisterLinearScan, "LinearScan",
    "Exact brute-force scan: the ground-truth oracle and linear-cost "
    "reference point",
    [](const IndexFactory::Spec& spec)
        -> Result<std::unique_ptr<AnnIndex>> {
      SpecReader reader(spec);
      DBLSH_RETURN_IF_ERROR(reader.Finish());
      std::unique_ptr<AnnIndex> index = std::make_unique<LinearScan>();
      return index;
    });

}  // namespace dblsh
