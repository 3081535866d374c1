#ifndef DBLSH_KDTREE_KD_TREE_H_
#define DBLSH_KDTREE_KD_TREE_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "dataset/float_matrix.h"
#include "util/top_k_heap.h"

namespace dblsh::kdtree {

/// Static kd-tree over the rows of an external low-dimensional
/// `FloatMatrix`. Built once by recursive median splits; supports exact k-NN
/// and *incremental* best-first NN enumeration, which is what the PM-LSH
/// and SRS baselines need (they keep pulling projected-space neighbors
/// until their candidate budget is exhausted).
///
/// This stands in for PM-LSH's PM-tree (docs/ARCHITECTURE.md,
/// "Substitutions"): in a coordinate space of m ~ 15 dimensions, both
/// structures provide exact incremental NN; the PM-LSH algorithm above it
/// is unchanged.
///
/// Thread-safety: the tree is immutable once built and its queries and
/// cursors only read it, so any number of threads may query one tree at
/// once (each with its own cursors).
class KdTree {
 public:
  /// Builds over all rows of `points`, which must outlive the tree.
  explicit KdTree(const FloatMatrix* points, size_t leaf_size = 16);

  /// Number of indexed rows.
  size_t size() const { return points_->rows(); }
  /// Dimensionality of the indexed space.
  size_t dim() const { return points_->cols(); }

  /// Exact k nearest rows to `query` (ascending distance).
  std::vector<Neighbor> Knn(const float* query, size_t k) const;

  /// Streams rows in ascending distance from `query`.
  class NnCursor {
   public:
    NnCursor(const KdTree* tree, const float* query);

    /// Advances to the next nearest point; returns false when exhausted.
    /// `out` receives (distance, id).
    bool Next(Neighbor* out);

   private:
    struct QueueItem {
      float dist;
      int32_t node;    // -1 when this item is a concrete point
      uint32_t id;     // valid when node == -1
      friend bool operator>(const QueueItem& a, const QueueItem& b) {
        return a.dist > b.dist;
      }
    };
    const KdTree* tree_;
    const float* query_;
    std::priority_queue<QueueItem, std::vector<QueueItem>,
                        std::greater<QueueItem>>
        queue_;
  };

 private:
  friend class NnCursor;

  struct Node {
    // Internal: split axis/value and children indices. Leaf: point range.
    int32_t left = -1;
    int32_t right = -1;
    uint32_t begin = 0;
    uint32_t end = 0;
    uint16_t axis = 0;
    float split = 0.f;
    // Tight bounding box of the subtree, for mindist pruning.
    std::vector<float> box_lo;
    std::vector<float> box_hi;
    bool is_leaf() const { return left < 0; }
  };

  int32_t Build(uint32_t begin, uint32_t end);
  float MinDistSquared(const Node& node, const float* query) const;

  const FloatMatrix* points_;
  size_t leaf_size_;
  std::vector<uint32_t> ids_;   // permutation of row indices
  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

}  // namespace dblsh::kdtree

#endif  // DBLSH_KDTREE_KD_TREE_H_
