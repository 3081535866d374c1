#ifndef DBLSH_BASELINES_UPDATE_COMMON_H_
#define DBLSH_BASELINES_UPDATE_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "dataset/float_matrix.h"
#include "lsh/projection.h"
#include "util/status.h"

namespace dblsh {

/// Shared front half of Insert(id) for the projected-matrix LSH baselines
/// (QALSH, R2LSH, VHP, SRS): validates the dataset-first update protocol,
/// projects row `id` with `bank` into `proj` (resized to the bank's
/// function count), and appends or overwrites row `id` of `projected`.
/// Keeping this in one place keeps the precondition semantics identical
/// across the methods; each caller then feeds `proj`/`projected` into its
/// own tree structures.
inline Status ProjectRowForInsert(const FloatMatrix* data,
                                  lsh::ProjectionBank* bank, uint32_t id,
                                  FloatMatrix* projected,
                                  std::vector<float>* proj) {
  if (data == nullptr) {
    return Status::InvalidArgument("Insert() requires a built index");
  }
  if (id >= data->rows() || data->IsDeleted(id)) {
    return Status::InvalidArgument(
        "Insert(" + std::to_string(id) +
        "): not a live row of the backing dataset (insert the vector with "
        "FloatMatrix::InsertRow first)");
  }
  if (id > projected->rows()) {
    return Status::InvalidArgument(
        "Insert(" + std::to_string(id) +
        "): appended ids must arrive densely (next expected id is " +
        std::to_string(projected->rows()) + ")");
  }
  proj->resize(projected->cols());
  bank->ProjectAll(data->row(id), proj->data());
  if (id == projected->rows()) {
    projected->AppendRow(proj->data(), proj->size());
  } else {
    // Recycled slot: the caller Erase()d it from its structures earlier
    // (or, for structures that cannot erase, documented the degradation),
    // so overwriting the stored projection is safe.
    std::copy(proj->begin(), proj->end(), projected->mutable_row(id));
  }
  return Status::OK();
}

/// Shared Erase(id) precondition check for the same baselines.
inline Status CheckEraseTarget(const FloatMatrix* data,
                               const FloatMatrix& projected, uint32_t id) {
  if (data == nullptr) {
    return Status::InvalidArgument("Erase() requires a built index");
  }
  if (id >= projected.rows()) {
    return Status::NotFound("Erase(" + std::to_string(id) +
                            "): id was never indexed");
  }
  return Status::OK();
}

}  // namespace dblsh

#endif  // DBLSH_BASELINES_UPDATE_COMMON_H_
