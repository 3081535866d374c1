#include "rtree/rtree.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "simd/simd.h"

namespace dblsh::rtree {

// ---------------------------------------------------------------------------
// Node arena
// ---------------------------------------------------------------------------

uint32_t RStarTree::Pool::Allocate(uint32_t node_level) {
  uint32_t block;
  if (!free_blocks.empty()) {
    block = free_blocks.back();
    free_blocks.pop_back();
  } else {
    block = static_cast<uint32_t>(count.size());
    if (block % kPageBlocks == 0) {
      ref_pages.push_back(
          std::make_unique_for_overwrite<uint32_t[]>(kPageBlocks * slots));
      value_pages.push_back(std::make_unique_for_overwrite<float[]>(
          kPageBlocks * slots * width));
    }
    count.emplace_back();
    level.emplace_back();
    parent.emplace_back();
  }
  count[block] = 0;
  level[block] = node_level;
  parent[block] = kNoNode;
  return block;
}

void RStarTree::Pool::Release(uint32_t block) { free_blocks.push_back(block); }

RStarTree::RStarTree(size_t dim, RTreeOptions options)
    : dim_(dim), options_(options), root_box_(dim) {
  assert(dim_ > 0);
  assert(options_.max_entries >= 4);
  leaves_.slots = inner_.slots = options_.max_entries + 1;
  leaves_.width = dim_;
  inner_.width = 2 * dim_;
}

RStarTree::RStarTree(RStarTree&& other) noexcept
    : dim_(other.dim_),
      options_(other.options_),
      leaves_(std::move(other.leaves_)),
      inner_(std::move(other.inner_)),
      root_(std::exchange(other.root_, kNoNode)),
      root_box_(std::move(other.root_box_)),
      locator_(std::move(other.locator_)),
      size_(std::exchange(other.size_, 0)) {}

RStarTree& RStarTree::operator=(RStarTree&& other) noexcept {
  if (this != &other) {
    dim_ = other.dim_;
    options_ = other.options_;
    leaves_ = std::move(other.leaves_);
    inner_ = std::move(other.inner_);
    root_ = std::exchange(other.root_, kNoNode);
    root_box_ = std::move(other.root_box_);
    locator_ = std::move(other.locator_);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

RStarTree::NodeRef RStarTree::NewNode(size_t level) {
  if (level == 0) return leaves_.Allocate(0);
  return inner_.Allocate(static_cast<uint32_t>(level)) | kInner;
}

void RStarTree::FreeNode(NodeRef n) { PoolOf(n).Release(BlockOf(n)); }

void RStarTree::AppendEntry(NodeRef n, uint32_t ref, const float* lo,
                            const float* hi) {
  Pool& pool = PoolOf(n);
  const uint32_t b = BlockOf(n);
  const uint32_t slot = pool.count[b]++;
  assert(slot < pool.slots);
  pool.Refs(b)[slot] = ref;
  float* values = pool.Values(b, slot);
  std::copy_n(lo, dim_, values);
  if (IsLeaf(n)) {
    locator_[ref] = b;
  } else {
    std::copy_n(hi, dim_, values + dim_);
    PoolOf(ref).parent[BlockOf(ref)] = n;
  }
}

void RStarTree::MoveEntry(NodeRef n, size_t from, size_t to) {
  Pool& pool = PoolOf(n);
  const uint32_t b = BlockOf(n);
  pool.Refs(b)[to] = pool.Refs(b)[from];
  std::copy_n(pool.Values(b, from), pool.width, pool.Values(b, to));
}

void RStarTree::EraseEntry(NodeRef n, size_t slot) {
  const size_t count = Count(n);
  for (size_t s = slot + 1; s < count; ++s) MoveEntry(n, s, s - 1);
  --PoolOf(n).count[BlockOf(n)];
}

size_t RStarTree::SlotOf(NodeRef parent, NodeRef child) const {
  const uint32_t* refs = PoolOf(parent).Refs(BlockOf(parent));
  const size_t slot =
      static_cast<size_t>(std::find(refs, refs + Count(parent), child) - refs);
  assert(slot < Count(parent));
  return slot;
}

Rect RStarTree::EntryRect(NodeRef n, size_t slot) const {
  return Rect(Lo(n, slot), Hi(n, slot), dim_);
}

Rect RStarTree::ComputeNodeRect(NodeRef n) const {
  Rect r(dim_);
  for (size_t i = 0; i < Count(n); ++i) r.ExtendBounds(Lo(n, i), Hi(n, i));
  return r;
}

// A node's box is stored once: in its parent's slot, or in root_box_.
Rect RStarTree::NodeBox(NodeRef n) const {
  if (n == root_) return root_box_;
  const NodeRef parent = Parent(n);
  return EntryRect(parent, SlotOf(parent, n));
}

void RStarTree::SetNodeBox(NodeRef n, const Rect& box) {
  if (n == root_) {
    root_box_ = box;
    return;
  }
  const NodeRef parent = Parent(n);
  float* values = inner_.Values(BlockOf(parent), SlotOf(parent, n));
  std::copy_n(box.lo_data(), dim_, values);
  std::copy_n(box.hi_data(), dim_, values + dim_);
}

void RStarTree::ExtendNodeBox(NodeRef n, const Rect& box) {
  if (n == root_) {
    root_box_.Extend(box);
    return;
  }
  const NodeRef parent = Parent(n);
  float* values = inner_.Values(BlockOf(parent), SlotOf(parent, n));
  box::Extend(values, values + dim_, box.lo_data(), box.hi_data(), dim_);
}

// ---------------------------------------------------------------------------
// STR bulk loading
// ---------------------------------------------------------------------------

namespace {

/// Splits [0, n) into `parts` contiguous chunks whose sizes differ by at
/// most one, so bulk loading never emits underfull tail nodes.
inline std::vector<std::pair<size_t, size_t>> EvenChunks(size_t begin,
                                                         size_t n,
                                                         size_t parts) {
  std::vector<std::pair<size_t, size_t>> chunks;
  chunks.reserve(parts);
  const size_t base = n / parts;
  const size_t extra = n % parts;
  size_t pos = begin;
  for (size_t p = 0; p < parts; ++p) {
    const size_t len = base + (p < extra ? 1 : 0);
    chunks.emplace_back(pos, pos + len);
    pos += len;
  }
  return chunks;
}

/// Recursively tiles `items` into groups of at most `capacity`, sorting by
/// successive dimensions (Sort-Tile-Recursive). `coord(item, axis)`
/// returns the sort key. Appends groups to `out`. Each sort orders
/// (key, item) pairs by key alone: the same comparisons, and so the same
/// permutation, as sorting the items with a key lookup per comparison,
/// with one lookup per item instead.
template <typename CoordFn>
void StrPartition(std::vector<uint32_t>& items, size_t begin, size_t end,
                  size_t axis, size_t num_axes, size_t capacity,
                  const CoordFn& coord,
                  std::vector<std::pair<float, uint32_t>>* keyed,
                  std::vector<std::pair<size_t, size_t>>* out) {
  const size_t n = end - begin;
  if (n == 0) return;
  if (n <= capacity) {
    out->emplace_back(begin, end);
    return;
  }
  keyed->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t item = items[begin + i];
    (*keyed)[i] = {coord(item, axis), item};
  }
  std::sort(keyed->begin(), keyed->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < n; ++i) items[begin + i] = (*keyed)[i].second;
  const size_t num_groups = (n + capacity - 1) / capacity;
  if (axis + 1 == num_axes) {
    for (const auto& [b, e] : EvenChunks(begin, n, num_groups)) {
      out->emplace_back(b, e);
    }
    return;
  }
  const auto remaining = static_cast<double>(num_axes - axis);
  const auto slabs = std::min<size_t>(
      num_groups, static_cast<size_t>(std::ceil(
                      std::pow(double(num_groups), 1.0 / remaining))));
  for (const auto& [b, e] : EvenChunks(begin, n, slabs)) {
    StrPartition(items, b, e, axis + 1, num_axes, capacity, coord, keyed,
                 out);
  }
}

}  // namespace

Status RStarTree::BulkLoad(const FloatMatrix& points,
                           const std::vector<uint32_t>& ids) {
  if (!ids.empty() && points.cols() != dim_) {
    return Status::InvalidArgument(
        "points have " + std::to_string(points.cols()) +
        " columns; the tree indexes " + std::to_string(dim_));
  }
  std::vector<uint32_t> locator(points.rows(), kNoNode);
  for (uint32_t id : ids) {
    if (id >= points.rows()) {
      return Status::InvalidArgument("point id " + std::to_string(id) +
                                     " out of range");
    }
    if (locator[id] != kNoNode) {
      return Status::InvalidArgument("point id " + std::to_string(id) +
                                     " repeats");
    }
    locator[id] = 0;
  }
  *this = RStarTree(dim_, options_);  // drop any existing content
  locator_ = std::move(locator);
  size_ = ids.size();
  if (ids.empty()) {
    root_ = NewNode(0);
    return Status::OK();
  }

  std::vector<uint32_t> sorted = ids;
  std::vector<std::pair<size_t, size_t>> groups;
  {
    std::vector<std::pair<float, uint32_t>> keyed;
    StrPartition(
        sorted, 0, sorted.size(), 0, dim_, options_.max_entries,
        [&](uint32_t id, size_t axis) { return points.at(id, axis); }, &keyed,
        &groups);
  }

  std::vector<NodeRef> leaves;
  std::vector<Rect> boxes;
  leaves.reserve(groups.size());
  boxes.reserve(groups.size());
  for (const auto& [b, e] : groups) {
    const NodeRef leaf = NewNode(0);
    for (size_t i = b; i < e; ++i) {
      const float* p = points.row(sorted[i]);
      AppendEntry(leaf, sorted[i], p, p);
    }
    leaves.push_back(leaf);
    boxes.push_back(ComputeNodeRect(leaf));
  }
  BulkLoadLevels(std::move(leaves), std::move(boxes));
  return Status::OK();
}

Status RStarTree::BulkLoadAll(const FloatMatrix& points) {
  std::vector<uint32_t> ids(points.rows());
  std::iota(ids.begin(), ids.end(), 0);
  return BulkLoad(points, ids);
}

void RStarTree::BulkLoadLevels(std::vector<NodeRef> nodes,
                               std::vector<Rect> boxes) {
  while (nodes.size() > 1) {
    std::vector<uint32_t> order(nodes.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<std::pair<size_t, size_t>> groups;
    std::vector<std::pair<float, uint32_t>> keyed;
    StrPartition(
        order, 0, order.size(), 0, dim_, options_.max_entries,
        [&](uint32_t i, size_t axis) { return boxes[i].Center(axis); },
        &keyed, &groups);
    std::vector<NodeRef> parents;
    std::vector<Rect> parent_boxes;
    parents.reserve(groups.size());
    parent_boxes.reserve(groups.size());
    for (const auto& [b, e] : groups) {
      const NodeRef parent = NewNode(Level(nodes[order[b]]) + 1);
      for (size_t i = b; i < e; ++i) {
        const Rect& box = boxes[order[i]];
        AppendEntry(parent, nodes[order[i]], box.lo_data(), box.hi_data());
      }
      parents.push_back(parent);
      parent_boxes.push_back(ComputeNodeRect(parent));
    }
    nodes = std::move(parents);
    boxes = std::move(parent_boxes);
  }
  root_ = nodes[0];
  root_box_ = std::move(boxes[0]);
}

// ---------------------------------------------------------------------------
// R* insertion
// ---------------------------------------------------------------------------

RStarTree::NodeRef RStarTree::ChooseSubtree(const Rect& entry_rect,
                                            size_t target_level) const {
  const float* entry_lo = entry_rect.lo_data();
  const float* entry_hi = entry_rect.hi_data();
  std::vector<float> extended(2 * dim_);
  float* extended_lo = extended.data();
  float* extended_hi = extended.data() + dim_;
  NodeRef node = root_;
  while (Level(node) > target_level) {
    const bool children_are_leaves = (Level(node) == 1);
    const size_t count = Count(node);
    size_t best = 0;
    double best_primary = std::numeric_limits<double>::max();
    double best_secondary = std::numeric_limits<double>::max();
    double best_area = std::numeric_limits<double>::max();
    for (size_t i = 0; i < count; ++i) {
      const float* lo = Lo(node, i);
      const float* hi = Hi(node, i);
      const double area = box::Area(lo, hi, dim_);
      const double enlargement =
          box::Enlargement(lo, hi, entry_lo, entry_hi, dim_);
      double primary;
      if (children_are_leaves) {
        // R*: minimize overlap enlargement among siblings.
        std::copy_n(lo, dim_, extended_lo);
        std::copy_n(hi, dim_, extended_hi);
        box::Extend(extended_lo, extended_hi, entry_lo, entry_hi, dim_);
        double overlap_before = 0.0, overlap_after = 0.0;
        for (size_t j = 0; j < count; ++j) {
          if (j == i) continue;
          overlap_before +=
              box::OverlapArea(lo, hi, Lo(node, j), Hi(node, j), dim_);
          overlap_after += box::OverlapArea(extended_lo, extended_hi,
                                            Lo(node, j), Hi(node, j), dim_);
        }
        primary = overlap_after - overlap_before;
      } else {
        primary = enlargement;
      }
      if (primary < best_primary ||
          (primary == best_primary && enlargement < best_secondary) ||
          (primary == best_primary && enlargement == best_secondary &&
           area < best_area)) {
        best = i;
        best_primary = primary;
        best_secondary = enlargement;
        best_area = area;
      }
    }
    node = Ref(node, best);
  }
  return node;
}

// Adds an entry at `target_level`: a point id with the degenerate box of
// its coordinates at level 0, a subtree with its box above.
void RStarTree::InsertAtLevel(const Rect& rect, uint32_t ref,
                              size_t target_level,
                              std::vector<bool>* reinserted) {
  const NodeRef node = ChooseSubtree(rect, target_level);
  AppendEntry(node, ref, rect.lo_data(), rect.hi_data());
  for (NodeRef n = node; n != kNoNode; n = Parent(n)) ExtendNodeBox(n, rect);
  if (Count(node) > options_.max_entries) {
    HandleOverflow(node, reinserted);
  }
}

void RStarTree::HandleOverflow(NodeRef node, std::vector<bool>* reinserted) {
  const bool is_root = (node == root_);
  const size_t level = Level(node);
  if (!is_root && reinserted != nullptr && level < reinserted->size() &&
      !(*reinserted)[level]) {
    (*reinserted)[level] = true;
    ReinsertEntries(node, reinserted);
  } else {
    SplitNode(node);
  }
}

void RStarTree::ReinsertEntries(NodeRef node, std::vector<bool>* reinserted) {
  const size_t p = std::max<size_t>(
      1, static_cast<size_t>(options_.reinsert_fraction *
                             static_cast<double>(options_.max_entries)));
  const size_t count = Count(node);
  assert(count > p);

  // Order entries by distance of their rect center from the node center,
  // farthest first; evict the first p.
  const Rect node_box = NodeBox(node);
  std::vector<std::pair<double, size_t>> by_dist(count);
  for (size_t i = 0; i < count; ++i) {
    by_dist[i] = {box::CenterDistanceSquared(node_box.lo_data(),
                                             node_box.hi_data(), Lo(node, i),
                                             Hi(node, i), dim_),
                  i};
  }
  std::sort(by_dist.begin(), by_dist.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  // Evicted entries are copied out in slot order; kept ones shift down.
  std::vector<bool> evict(count, false);
  for (size_t i = 0; i < p; ++i) evict[by_dist[i].second] = true;
  std::vector<std::pair<uint32_t, Rect>> evicted;
  size_t kept = 0;
  for (size_t i = 0; i < count; ++i) {
    if (evict[i]) {
      evicted.emplace_back(Ref(node, i), EntryRect(node, i));
    } else {
      MoveEntry(node, i, kept++);
    }
  }
  PoolOf(node).count[BlockOf(node)] = static_cast<uint32_t>(kept);

  // Tighten boxes along the whole path after eviction.
  for (NodeRef n = node; n != kNoNode; n = Parent(n)) {
    SetNodeBox(n, ComputeNodeRect(n));
  }

  // Re-insert closest-first (the R* "close reinsert" policy).
  const size_t level = Level(node);
  for (auto it = evicted.rbegin(); it != evicted.rend(); ++it) {
    InsertAtLevel(it->second, it->first, level, reinserted);
  }
}

void RStarTree::SplitNode(NodeRef node) {
  const size_t count = Count(node);
  const size_t m = options_.MinEntries();
  assert(count >= 2 * m);
  const size_t dim = dim_;

  std::vector<Rect> rects(count);
  std::vector<uint32_t> refs(count);
  for (size_t i = 0; i < count; ++i) {
    rects[i] = EntryRect(node, i);
    refs[i] = Ref(node, i);
  }

  // R* ChooseSplitAxis: minimize total margin over all valid distributions.
  double best_margin_sum = std::numeric_limits<double>::max();
  std::vector<size_t> order(count);
  std::vector<size_t> best_order;
  for (size_t axis = 0; axis < dim; ++axis) {
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (rects[a].lo(axis) != rects[b].lo(axis)) {
        return rects[a].lo(axis) < rects[b].lo(axis);
      }
      return rects[a].hi(axis) < rects[b].hi(axis);
    });
    // Prefix/suffix bounding boxes for O(count) margin evaluation.
    std::vector<Rect> prefix(count, Rect(dim)), suffix(count, Rect(dim));
    Rect acc(dim);
    for (size_t i = 0; i < count; ++i) {
      acc.Extend(rects[order[i]]);
      prefix[i] = acc;
    }
    acc = Rect(dim);
    for (size_t i = count; i-- > 0;) {
      acc.Extend(rects[order[i]]);
      suffix[i] = acc;
    }
    double margin_sum = 0.0;
    for (size_t k = m; k + m <= count; ++k) {
      margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
    }
    if (margin_sum < best_margin_sum) {
      best_margin_sum = margin_sum;
      best_order = order;
    }
  }

  // ChooseSplitIndex on the winning axis: minimize overlap, tie on area.
  order = best_order;
  std::vector<Rect> prefix(count, Rect(dim)), suffix(count, Rect(dim));
  Rect acc(dim);
  for (size_t i = 0; i < count; ++i) {
    acc.Extend(rects[order[i]]);
    prefix[i] = acc;
  }
  acc = Rect(dim);
  for (size_t i = count; i-- > 0;) {
    acc.Extend(rects[order[i]]);
    suffix[i] = acc;
  }
  size_t best_k = m;
  double best_overlap = std::numeric_limits<double>::max();
  double best_area = std::numeric_limits<double>::max();
  for (size_t k = m; k + m <= count; ++k) {
    const double overlap = prefix[k - 1].OverlapArea(suffix[k]);
    const double area = prefix[k - 1].Area() + suffix[k].Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  // Materialize the two groups.
  const NodeRef sibling = NewNode(Level(node));
  PoolOf(node).count[BlockOf(node)] = 0;
  for (size_t i = 0; i < count; ++i) {
    const Rect& r = rects[order[i]];
    AppendEntry(i < best_k ? node : sibling, refs[order[i]], r.lo_data(),
                r.hi_data());
  }
  const Rect node_box = ComputeNodeRect(node);
  const Rect sibling_box = ComputeNodeRect(sibling);

  if (node == root_) {
    const NodeRef new_root = NewNode(Level(node) + 1);
    AppendEntry(new_root, node, node_box.lo_data(), node_box.hi_data());
    AppendEntry(new_root, sibling, sibling_box.lo_data(),
                sibling_box.hi_data());
    root_ = new_root;
    root_box_ = ComputeNodeRect(new_root);
    return;
  }
  // Attach the sibling to the parent; parent may overflow in turn.
  const NodeRef parent = Parent(node);
  SetNodeBox(node, node_box);
  AppendEntry(parent, sibling, sibling_box.lo_data(), sibling_box.hi_data());
  ExtendNodeBox(parent, sibling_box);
  if (Count(parent) > options_.max_entries) {
    // Deeper levels already handled reinsertion bookkeeping; split directly
    // up the path (standard overflow propagation).
    SplitNode(parent);
  }
}

Status RStarTree::Insert(uint32_t id, const float* point) {
  if (Point(id) != nullptr) {
    return Status::InvalidArgument("point id " + std::to_string(id) +
                                   " is already indexed");
  }
  if (id >= locator_.size()) locator_.resize(size_t{id} + 1, kNoNode);
  if (root_ == kNoNode) {
    root_ = NewNode(0);
    root_box_ = Rect(dim_);
  }
  if (size_ == 0 && Count(root_) == 0) {
    AppendEntry(root_, id, point, point);
    root_box_ = ComputeNodeRect(root_);
    size_ = 1;
    return Status::OK();
  }
  std::vector<bool> reinserted(Level(root_) + 1, false);
  InsertAtLevel(Rect(point, dim_), id, 0, &reinserted);
  ++size_;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

Status RStarTree::Remove(uint32_t id) {
  if (id >= locator_.size() || locator_[id] == kNoNode) {
    return Status::NotFound("id not indexed");
  }
  const NodeRef leaf = locator_[id];
  const uint32_t* ids = leaves_.Refs(leaf);
  EraseEntry(leaf, static_cast<size_t>(
                       std::find(ids, ids + Count(leaf), id) - ids));
  locator_[id] = kNoNode;
  --size_;

  // Condense: remove underfull nodes along the path, collecting orphans.
  const size_t min_entries = options_.MinEntries();
  std::vector<NodeRef> orphans;
  for (NodeRef n = leaf; n != root_;) {
    const NodeRef parent = Parent(n);
    if (Count(n) < min_entries) {
      EraseEntry(parent, SlotOf(parent, n));
      orphans.push_back(n);
    } else {
      SetNodeBox(n, ComputeNodeRect(n));
    }
    n = parent;
  }
  root_box_ = ComputeNodeRect(root_);

  // Re-insert orphaned entries at their original levels.
  for (NodeRef orphan : orphans) {
    const size_t level = Level(orphan);
    for (size_t i = 0; i < Count(orphan); ++i) {
      std::vector<bool> reinserted(Level(root_) + 1, false);
      InsertAtLevel(EntryRect(orphan, i), Ref(orphan, i), level, &reinserted);
    }
    FreeNode(orphan);
  }

  // Shrink the root while it is an internal node with a single child.
  while (!IsLeaf(root_) && Count(root_) == 1) {
    const NodeRef old_root = root_;
    root_box_ = EntryRect(old_root, 0);
    root_ = Ref(old_root, 0);
    PoolOf(root_).parent[BlockOf(root_)] = kNoNode;
    FreeNode(old_root);
  }
  return Status::OK();
}

const float* RStarTree::Point(uint32_t id) const {
  if (id >= locator_.size() || locator_[id] == kNoNode) return nullptr;
  const NodeRef leaf = locator_[id];
  const uint32_t* ids = leaves_.Refs(leaf);
  const size_t slot =
      static_cast<size_t>(std::find(ids, ids + Count(leaf), id) - ids);
  return slot < Count(leaf) ? leaves_.Values(leaf, slot) : nullptr;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

void RStarTree::WindowQuery(const Rect& window,
                            std::vector<uint32_t>* out) const {
  WindowCursor cursor(this, window);
  uint32_t id = 0;
  while (cursor.Next(&id)) out->push_back(id);
}

RTreeStats RStarTree::ComputeStats() const {
  RTreeStats stats;
  if (root_ == kNoNode) return stats;
  stats.height = Level(root_) + 1;
  std::vector<NodeRef> stack = {root_};
  while (!stack.empty()) {
    const NodeRef node = stack.back();
    stack.pop_back();
    ++stats.node_count;
    if (IsLeaf(node)) {
      ++stats.leaf_count;
      stats.entry_count += Count(node);
    } else {
      for (size_t i = 0; i < Count(node); ++i) stack.push_back(Ref(node, i));
    }
  }
  return stats;
}

size_t RStarTree::CheckInvariants() const {
  if (root_ == kNoNode) return 0;
  size_t violations = 0;
  const size_t min_entries = options_.MinEntries();
  size_t entries = 0;
  if (Parent(root_) != kNoNode) ++violations;
  // Each node is checked against the box its parent stores for it.
  std::vector<std::pair<NodeRef, Rect>> stack = {{root_, root_box_}};
  while (!stack.empty()) {
    const auto [node, node_box] = std::move(stack.back());
    stack.pop_back();
    const size_t count = Count(node);
    const bool is_root = (node == root_);
    if (count > options_.max_entries) ++violations;
    if (!is_root && count < min_entries) ++violations;
    if (IsLeaf(node)) {
      if (Level(node) != 0) ++violations;
      for (size_t i = 0; i < count; ++i) {
        const uint32_t id = Ref(node, i);
        if (!node_box.ContainsPoint(Lo(node, i))) ++violations;
        // Locator fault: the id does not map to the leaf holding it.
        if (id >= locator_.size() || locator_[id] != node) ++violations;
      }
      entries += count;
    } else {
      for (size_t i = 0; i < count; ++i) {
        const NodeRef child = Ref(node, i);
        if (Level(child) + 1 != Level(node)) ++violations;
        if (Parent(child) != node) ++violations;
        const Rect child_box = EntryRect(node, i);
        if (!node_box.ContainsRect(child_box)) ++violations;
        stack.emplace_back(child, child_box);
      }
    }
    const Rect computed = ComputeNodeRect(node);
    for (size_t j = 0; j < dim_; ++j) {
      if (count > 0 && (computed.lo(j) != node_box.lo(j) ||
                        computed.hi(j) != node_box.hi(j))) {
        ++violations;
        break;
      }
    }
  }
  // Locator faults: the entry count, or the number of ids the locator
  // maps, differs from size().
  if (entries != size_) ++violations;
  const auto located = static_cast<size_t>(
      std::count_if(locator_.begin(), locator_.end(),
                    [](uint32_t leaf) { return leaf != kNoNode; }));
  if (located != size_) ++violations;
  return violations;
}

// ---------------------------------------------------------------------------
// WindowCursor
// ---------------------------------------------------------------------------

struct RStarTree::WindowCursor::Frame {
  const uint32_t* refs;  // the node's refs, from slot 0
  NodeRef node;
  uint32_t base;  // the slot of bit 0 of `hits`
  uint64_t hits;  // slots base + s that meet the window, not yet taken
};

RStarTree::WindowCursor::WindowCursor(const RStarTree* tree, Rect window)
    : tree_(tree), kernels_(&simd::Active()), window_(std::move(window)) {
  if (tree_->root_ != kNoNode && window_.Intersects(tree_->root_box_)) {
    stack_.reserve(8);
    Push(tree_->root_);
  }
}

RStarTree::WindowCursor::~WindowCursor() = default;
RStarTree::WindowCursor::WindowCursor(WindowCursor&&) noexcept = default;

uint64_t RStarTree::WindowCursor::Test(NodeRef node, uint32_t base) const {
  const Pool& pool = tree_->PoolOf(node);
  const uint32_t block = BlockOf(node);
  const size_t n = std::min<size_t>(pool.count[block] - base, 64);
  const float* values = pool.Values(block, base);
  return IsLeaf(node)
             ? kernels_->points_in_window(window_.lo_data(), window_.hi_data(),
                                          values, tree_->dim_, n)
             : kernels_->boxes_meeting_window(window_.lo_data(),
                                              window_.hi_data(), values,
                                              tree_->dim_, n);
}

void RStarTree::WindowCursor::Push(NodeRef node) {
  const uint32_t block = BlockOf(node);
  stack_.push_back(
      {tree_->PoolOf(node).Refs(block), node, 0, Test(node, 0)});
}

bool RStarTree::WindowCursor::Next(uint32_t* id) {
  while (!stack_.empty()) {
    Frame& frame = stack_.back();
    if (frame.hits == 0) {
      const uint32_t base = frame.base + 64;
      if (base < tree_->Count(frame.node)) {
        frame.base = base;
        frame.hits = Test(frame.node, base);
      } else {
        stack_.pop_back();
      }
      continue;
    }
    const uint32_t ref = frame.refs[frame.base + std::countr_zero(frame.hits)];
    frame.hits &= frame.hits - 1;
    if (IsLeaf(frame.node)) {
      *id = ref;
      return true;
    }
    Push(ref);
  }
  return false;
}

}  // namespace dblsh::rtree
