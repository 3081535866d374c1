#include "kdtree/kd_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/distance.h"

namespace dblsh::kdtree {

KdTree::KdTree(const FloatMatrix* points, size_t leaf_size)
    : points_(points), leaf_size_(std::max<size_t>(1, leaf_size)) {
  assert(points_ != nullptr);
  ids_.resize(points_->rows());
  std::iota(ids_.begin(), ids_.end(), 0);
  if (!ids_.empty()) {
    root_ = Build(0, static_cast<uint32_t>(ids_.size()));
  }
}

int32_t KdTree::Build(uint32_t begin, uint32_t end) {
  const size_t dim = points_->cols();
  Node node;
  node.begin = begin;
  node.end = end;
  node.box_lo.assign(dim, std::numeric_limits<float>::max());
  node.box_hi.assign(dim, std::numeric_limits<float>::lowest());
  for (uint32_t i = begin; i < end; ++i) {
    const float* p = points_->row(ids_[i]);
    for (size_t j = 0; j < dim; ++j) {
      node.box_lo[j] = std::min(node.box_lo[j], p[j]);
      node.box_hi[j] = std::max(node.box_hi[j], p[j]);
    }
  }

  const auto index = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(node);  // reserve the slot; children filled below

  if (end - begin <= leaf_size_) return index;

  // Split on the widest axis at the median.
  size_t axis = 0;
  float width = -1.f;
  for (size_t j = 0; j < dim; ++j) {
    const float w = node.box_hi[j] - node.box_lo[j];
    if (w > width) {
      width = w;
      axis = j;
    }
  }
  if (width <= 0.f) return index;  // all points identical: keep as leaf

  const uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(ids_.begin() + begin, ids_.begin() + mid,
                   ids_.begin() + end, [&](uint32_t a, uint32_t b) {
                     return points_->at(a, axis) < points_->at(b, axis);
                   });
  const float split = points_->at(ids_[mid], axis);

  const int32_t left = Build(begin, mid);
  const int32_t right = Build(mid, end);
  nodes_[index].left = left;
  nodes_[index].right = right;
  nodes_[index].axis = static_cast<uint16_t>(axis);
  nodes_[index].split = split;
  return index;
}

float KdTree::MinDistSquared(const Node& node, const float* query) const {
  float acc = 0.f;
  for (size_t j = 0; j < node.box_lo.size(); ++j) {
    float d = 0.f;
    if (query[j] < node.box_lo[j]) {
      d = node.box_lo[j] - query[j];
    } else if (query[j] > node.box_hi[j]) {
      d = query[j] - node.box_hi[j];
    }
    acc += d * d;
  }
  return acc;
}

std::vector<Neighbor> KdTree::Knn(const float* query, size_t k) const {
  TopKHeap heap(k);
  if (root_ < 0) return heap.TakeSorted();
  // Depth-first with pruning on the current k-th distance.
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    const Node& node = nodes_[static_cast<size_t>(stack.back())];
    stack.pop_back();
    const float mind = MinDistSquared(node, query);
    const float thr = heap.Threshold();
    if (heap.Full() && mind >= thr * thr) continue;
    if (node.is_leaf()) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        const uint32_t id = ids_[i];
        heap.Push(L2Distance(points_->row(id), query, points_->cols()), id);
      }
    } else {
      // Visit the nearer child first.
      const size_t axis = node.axis;
      if (query[axis] < node.split) {
        stack.push_back(node.right);
        stack.push_back(node.left);
      } else {
        stack.push_back(node.left);
        stack.push_back(node.right);
      }
    }
  }
  return heap.TakeSorted();
}

KdTree::NnCursor::NnCursor(const KdTree* tree, const float* query)
    : tree_(tree), query_(query) {
  if (tree_->root_ >= 0) {
    const Node& root = tree_->nodes_[static_cast<size_t>(tree_->root_)];
    queue_.push({tree_->MinDistSquared(root, query_), tree_->root_, 0});
  }
}

bool KdTree::NnCursor::Next(Neighbor* out) {
  while (!queue_.empty()) {
    const QueueItem item = queue_.top();
    queue_.pop();
    if (item.node < 0) {
      out->dist = std::sqrt(item.dist);
      out->id = item.id;
      return true;
    }
    const Node& node = tree_->nodes_[static_cast<size_t>(item.node)];
    if (node.is_leaf()) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        const uint32_t id = tree_->ids_[i];
        const float d2 = L2DistanceSquared(tree_->points_->row(id), query_,
                                           tree_->points_->cols());
        queue_.push({d2, -1, id});
      }
    } else {
      const Node& left = tree_->nodes_[static_cast<size_t>(node.left)];
      const Node& right = tree_->nodes_[static_cast<size_t>(node.right)];
      queue_.push({tree_->MinDistSquared(left, query_), node.left, 0});
      queue_.push({tree_->MinDistSquared(right, query_), node.right, 0});
    }
  }
  return false;
}

}  // namespace dblsh::kdtree
