#ifndef DBLSH_BPTREE_BPLUS_TREE_H_
#define DBLSH_BPTREE_BPLUS_TREE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "util/status.h"

namespace dblsh::bptree {

/// In-memory B+-tree mapping float keys (projection values) to point ids,
/// with duplicate keys allowed. This is the one-dimensional index substrate
/// the collision-counting baselines (QALSH, R2LSH, VHP) use: one tree per
/// hash function, queried by walking outward from the query's projection in
/// both directions via the leaf-linked `Iterator`.
///
/// Thread-safety: the const members and Iterators only read, so any number
/// of threads may query one tree at once (the baselines' concurrent read
/// path relies on it); BulkLoad, Insert and Erase must not overlap them.
class BPlusTree {
 public:
  struct Entry {
    float key;
    uint32_t id;
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.key != b.key) return a.key < b.key;
      return a.id < b.id;
    }
  };

  /// An empty tree whose nodes hold at most `fanout` entries.
  explicit BPlusTree(size_t fanout = 64);
  ~BPlusTree();

  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Replaces the content with `entries` (sorted internally), building all
  /// levels bottom-up.
  Status BulkLoad(std::vector<Entry> entries);

  /// Inserts a single (key, id) pair (top-down split insertion).
  void Insert(float key, uint32_t id);

  /// Removes the (key, id) entry; NotFound when absent. Underflow is
  /// handled B-tree style: a node that drops below fanout/4 entries either
  /// borrows one entry from an adjacent sibling or merges into it when the
  /// two fit in one node, cascading upward; an internal root with a single
  /// child collapses. `key` must be the exact key the id was inserted
  /// under (for the LSH baselines: the point's stored projection value).
  Status Erase(float key, uint32_t id);

  /// Number of (key, id) entries held.
  size_t size() const { return size_; }
  /// Number of levels: 1 for a lone leaf, 0 for an empty tree.
  size_t height() const;

  /// Collects ids with key in [lo, hi].
  void RangeQuery(float lo, float hi, std::vector<uint32_t>* out) const;

  /// Position in the sorted key order; supports bidirectional stepping.
  class Iterator {
   public:
    bool Valid() const { return leaf_ != nullptr; }
    float key() const;
    uint32_t id() const;
    void Next();
    void Prev();

   private:
    friend class BPlusTree;
    const void* leaf_ = nullptr;  // internal leaf node
    size_t idx_ = 0;
  };

  /// First entry with key >= `key`; invalid iterator if none.
  Iterator LowerBound(float key) const;
  /// Last entry with key < `key` (the left neighbor of LowerBound); invalid
  /// if none. Together these seed QALSH's two-directional expansion.
  Iterator UpperNeighborBelow(float key) const;
  /// The smallest entry; invalid iterator when the tree is empty.
  Iterator Begin() const;

  /// Test hook: verifies key ordering, fill factors and leaf links; returns
  /// the number of violations.
  size_t CheckInvariants() const;

 private:
  struct Node;
  void FreeTree(Node* node);

  size_t fanout_;
  Node* root_ = nullptr;
  size_t size_ = 0;
};

}  // namespace dblsh::bptree

#endif  // DBLSH_BPTREE_BPLUS_TREE_H_
