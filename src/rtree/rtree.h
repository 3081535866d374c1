#ifndef DBLSH_RTREE_RTREE_H_
#define DBLSH_RTREE_RTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dataset/float_matrix.h"
#include "rtree/rect.h"
#include "util/status.h"

namespace dblsh::simd {
struct DistanceKernels;
}  // namespace dblsh::simd

namespace dblsh::rtree {

/// Tuning knobs. Defaults follow Beckmann et al.'s recommendations
/// (min fill 40%, reinsert 30% of the node on first overflow per level).
struct RTreeOptions {
  size_t max_entries = 32;
  double min_fill = 0.4;
  double reinsert_fraction = 0.3;

  /// The minimum fill of a non-root node: max_entries * min_fill, at
  /// least 1.
  size_t MinEntries() const {
    const auto m = static_cast<size_t>(max_entries * min_fill);
    return m < 1 ? 1 : m;
  }
};

/// Construction/query statistics, exposed for the benches and ablations.
struct RTreeStats {
  size_t height = 0;       ///< 1 for a single leaf root
  size_t node_count = 0;   ///< total nodes
  size_t leaf_count = 0;
  size_t entry_count = 0;  ///< indexed points
};

/// In-memory R*-tree over `dim`-dimensional points (the projected points
/// of one DB-LSH compound hash G_i). The tree owns its points: a leaf
/// stores each entry's id and coordinates inline, and an internal node
/// stores its children's boxes inline, so a window query reads only the
/// nodes it tests. Nodes live in an arena addressed by index, with a free
/// list (one pool per node kind); a dense id -> leaf locator (4 bytes per
/// id up to the largest) lets Remove() and Point() find an entry without
/// its coordinates.
///
/// Supports both one-by-one R* insertion (ChooseSubtree + forced reinsert +
/// R* topological split) and Sort-Tile-Recursive bulk loading — the paper
/// credits bulk loading for DB-LSH's small indexing time, and the ablation
/// bench compares the two. Entries keep their order within a node (a
/// removal shifts the later ones down), so a window yields its ids in an
/// order fixed by the sequence of operations alone.
class RStarTree {
 public:
  /// An empty tree over `dim`-dimensional points.
  explicit RStarTree(size_t dim, RTreeOptions options = RTreeOptions());

  /// Moving leaves `other` empty.
  RStarTree(RStarTree&& other) noexcept;
  RStarTree& operator=(RStarTree&& other) noexcept;
  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  /// Builds the tree over the rows `ids` of `points` with STR bulk loading,
  /// copying their coordinates; replaces any existing content. Fails with
  /// InvalidArgument, leaving the tree as it was, if an id is out of range
  /// for `points` or repeats, or if `points` is not dim() wide.
  Status BulkLoad(const FloatMatrix& points, const std::vector<uint32_t>& ids);

  /// Convenience: bulk loads every row of `points` (ids 0..rows-1).
  Status BulkLoadAll(const FloatMatrix& points);

  /// Inserts point `id` at `point` (dim() floats, copied) by R* insertion
  /// with forced reinsertion. Returns InvalidArgument, changing nothing,
  /// if `id` is already indexed.
  Status Insert(uint32_t id, const float* point);

  /// Removes one point id; returns NotFound if absent.
  Status Remove(uint32_t id);

  /// The stored coordinates of `id` (dim() floats), or nullptr when `id`
  /// is not indexed. Valid until the next mutation of the tree.
  const float* Point(uint32_t id) const;

  /// Appends all point ids inside `window` (inclusive bounds) to `out`, in
  /// WindowCursor order.
  void WindowQuery(const Rect& window, std::vector<uint32_t>* out) const;

  /// Number of indexed points.
  size_t size() const { return size_; }
  /// Dimensionality of the indexed points.
  size_t dim() const { return dim_; }
  /// Height, node, leaf and entry counts, by a full traversal.
  RTreeStats ComputeStats() const;

  /// Invariant checker used by the test suite: verifies that every stored
  /// child box is exactly its child's bounding box, fill factors, uniform
  /// leaf depth, parent links, and the id locator (every indexed id maps
  /// to the leaf holding it; the entry count equals size()). Returns the
  /// number of violations.
  size_t CheckInvariants() const;

  /// Streaming window query: yields matching ids one at a time so callers
  /// (DB-LSH's Algorithm 1) can stop after a candidate budget without
  /// visiting the nodes not yet reached. When it reaches a node, the
  /// cursor tests the node's slots against the window in one call of the
  /// active SIMD tier's window kernel (64 slots at a time), then yields the
  /// hits of a leaf, or descends into the hit children of an inner node, in
  /// slot order, depth first: the same ids in the same order on every tier.
  /// The tier is read once, when the cursor opens. The tree must not change
  /// while a cursor is open.
  class WindowCursor {
   public:
    /// A cursor over the ids of `tree` inside `window`.
    WindowCursor(const RStarTree* tree, Rect window);
    ~WindowCursor();
    WindowCursor(WindowCursor&&) noexcept;
    WindowCursor& operator=(WindowCursor&&) = delete;
    WindowCursor(const WindowCursor&) = delete;
    WindowCursor& operator=(const WindowCursor&) = delete;

    /// Advances to the next id in the window; returns false when exhausted.
    bool Next(uint32_t* id);

   private:
    struct Frame;
    /// The window mask of the slots base..base+63 (those that exist) of
    /// `node`, a NodeRef.
    uint64_t Test(uint32_t node, uint32_t base) const;
    /// Opens a frame on `node`, a NodeRef, testing its first 64 slots.
    void Push(uint32_t node);

    const RStarTree* tree_;
    const simd::DistanceKernels* kernels_;
    Rect window_;
    std::vector<Frame> stack_;
  };

 private:
  friend class WindowCursor;

  /// A leaf block index, or an internal block index tagged with kInner.
  using NodeRef = uint32_t;
  static constexpr NodeRef kInner = 1u << 31;
  static constexpr NodeRef kNoNode = ~NodeRef{0};

  /// The nodes of one kind: fixed-stride blocks addressed by index, with a
  /// free list. Block b has `slots` entries (max_entries + 1: the extra
  /// one holds the overflow entry before a split); entry s has a ref (a
  /// point id in a leaf, a child NodeRef in an internal node) and `width`
  /// floats (a leaf entry's K coordinates, or a child box's K lows then K
  /// highs). Blocks live in pages of kPageBlocks, so the arena grows
  /// without moving a block, in allocations small enough for the heap to
  /// place in memory that other large buffers freed.
  struct Pool {
    static constexpr uint32_t kPageShift = 5;
    static constexpr uint32_t kPageBlocks = 1u << kPageShift;

    size_t slots = 0;
    size_t width = 0;
    std::vector<uint32_t> count;
    std::vector<uint32_t> level;
    std::vector<NodeRef> parent;
    std::vector<std::unique_ptr<uint32_t[]>> ref_pages;
    std::vector<std::unique_ptr<float[]>> value_pages;
    std::vector<uint32_t> free_blocks;

    uint32_t Allocate(uint32_t node_level);
    void Release(uint32_t block);
    uint32_t* Refs(uint32_t block) {
      return ref_pages[block >> kPageShift].get() +
             (block & (kPageBlocks - 1)) * slots;
    }
    const uint32_t* Refs(uint32_t block) const {
      return ref_pages[block >> kPageShift].get() +
             (block & (kPageBlocks - 1)) * slots;
    }
    float* Values(uint32_t block, size_t slot) {
      return value_pages[block >> kPageShift].get() +
             ((block & (kPageBlocks - 1)) * slots + slot) * width;
    }
    const float* Values(uint32_t block, size_t slot) const {
      return value_pages[block >> kPageShift].get() +
             ((block & (kPageBlocks - 1)) * slots + slot) * width;
    }
  };

  static bool IsLeaf(NodeRef n) { return (n & kInner) == 0; }
  static uint32_t BlockOf(NodeRef n) { return n & ~kInner; }
  Pool& PoolOf(NodeRef n) { return IsLeaf(n) ? leaves_ : inner_; }
  const Pool& PoolOf(NodeRef n) const { return IsLeaf(n) ? leaves_ : inner_; }
  size_t Level(NodeRef n) const { return PoolOf(n).level[BlockOf(n)]; }
  size_t Count(NodeRef n) const { return PoolOf(n).count[BlockOf(n)]; }
  NodeRef Parent(NodeRef n) const { return PoolOf(n).parent[BlockOf(n)]; }
  uint32_t Ref(NodeRef n, size_t slot) const {
    return PoolOf(n).Refs(BlockOf(n))[slot];
  }
  /// Entry bounds: a leaf entry is the box [p, p] of its point.
  const float* Lo(NodeRef n, size_t slot) const {
    return PoolOf(n).Values(BlockOf(n), slot);
  }
  const float* Hi(NodeRef n, size_t slot) const {
    return Lo(n, slot) + (IsLeaf(n) ? 0 : dim_);
  }

  NodeRef NewNode(size_t level);
  void FreeNode(NodeRef n);
  void AppendEntry(NodeRef n, uint32_t ref, const float* lo, const float* hi);
  void MoveEntry(NodeRef n, size_t from, size_t to);
  void EraseEntry(NodeRef n, size_t slot);
  size_t SlotOf(NodeRef parent, NodeRef child) const;
  Rect EntryRect(NodeRef n, size_t slot) const;
  Rect ComputeNodeRect(NodeRef n) const;
  Rect NodeBox(NodeRef n) const;
  void SetNodeBox(NodeRef n, const Rect& box);
  void ExtendNodeBox(NodeRef n, const Rect& box);

  NodeRef ChooseSubtree(const Rect& entry_rect, size_t target_level) const;
  void InsertAtLevel(const Rect& rect, uint32_t ref, size_t target_level,
                     std::vector<bool>* reinserted);
  void HandleOverflow(NodeRef node, std::vector<bool>* reinserted);
  void SplitNode(NodeRef node);
  void ReinsertEntries(NodeRef node, std::vector<bool>* reinserted);
  void BulkLoadLevels(std::vector<NodeRef> nodes, std::vector<Rect> boxes);

  size_t dim_;
  RTreeOptions options_;
  Pool leaves_;
  Pool inner_;
  NodeRef root_ = kNoNode;
  Rect root_box_;
  std::vector<uint32_t> locator_;  // point id -> leaf block, or kNoNode
  size_t size_ = 0;
};

}  // namespace dblsh::rtree

#endif  // DBLSH_RTREE_RTREE_H_
