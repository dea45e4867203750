// In-memory R*-tree (Beckmann et al., SIGMOD 1990) — the multidimensional
// index the paper uses (via LibGist) for feature vectors. Implements the R*
// heuristics: minimum-overlap subtree choice at the leaf level, the
// margin-driven axis/distribution split, and forced reinsertion on first
// overflow per level. Every node visited during a query counts as one page
// access.
//
// Each node is one page-like block (DESIGN.md §10): its entries' boxes laid
// out dimension-major in a contiguous 32-byte-aligned double block with room
// for M+1 entries (the overflow slot; a node restored by FromPages is sized
// to its entries until its first append), lo rows then hi rows in an internal
// node and each point once in a leaf, beside an array of child pointers or
// leaf ids in entry order. A query scores a whole node with one call of the
// block MINDIST kernel (ts/kernels.h), one entry per SIMD lane; RangeQuery
// walks the tree in preorder, so it emits leaf entries in the order
// SerializePages writes them. The mutation path (insert, split, reinsert,
// delete) lifts entries out as Rects and writes them back.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "index/rect.h"
#include "util/status.h"

namespace humdex {

/// Tuning knobs; defaults approximate a 4KB page of 8-dim double points.
struct RStarOptions {
  std::size_t max_entries = 64;   ///< M: fanout / leaf capacity
  std::size_t min_entries = 26;   ///< m: ~40% of M (R* recommendation)
  std::size_t reinsert_count = 19;///< p: ~30% of M+1 forced reinserts
};

/// R*-tree over points in a fixed-dimension feature space.
class RStarTree : public SpatialIndex {
 public:
  explicit RStarTree(std::size_t dims, RStarOptions options = RStarOptions());
  ~RStarTree() override;

  /// Bulk-load a tree with Sort-Tile-Recursive packing (Leutenegger et al.):
  /// points are tiled into full leaves along the leading dimensions and
  /// parents are packed bottom-up. Produces a near-100%-full tree — fewer
  /// nodes and page accesses than incremental insertion — with identical
  /// query semantics. `points` and `ids` must have equal length.
  static std::unique_ptr<RStarTree> BulkLoad(std::size_t dims,
                                             const std::vector<Series>& points,
                                             const std::vector<std::int64_t>& ids,
                                             RStarOptions options = RStarOptions());

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  void Insert(const Series& point, std::int64_t id) override;

  /// Guttman-style deletion with tree condensation: the leaf entry is
  /// removed; underfull nodes along the path are dissolved and their
  /// remaining entries reinserted; the root is collapsed when it has a
  /// single child.
  bool Delete(const Series& point, std::int64_t id) override;

  /// Walks the tree in preorder, so the ids come in leaf order: the order
  /// SerializePages writes them.
  std::vector<std::int64_t> RangeQuery(const Rect& query, double radius,
                                       IndexStats* stats = nullptr) const override;

  std::vector<Neighbor> KnnQuery(const Series& query, std::size_t k,
                                 IndexStats* stats = nullptr) const override;

  std::vector<Neighbor> NearestToRect(const Rect& query, std::size_t k,
                                      IndexStats* stats = nullptr) const override;

  std::size_t size() const override { return size_; }

  /// Tree height (1 = root is a leaf). For tests and diagnostics.
  std::size_t Height() const;

  /// Total node count (= pages in the tree).
  std::size_t NodeCount() const;

  /// Validates the structural invariants (MBR containment, entry counts,
  /// uniform leaf depth). Aborts via HUMDEX_CHECK on violation. Test hook.
  void CheckInvariants() const;

  /// Append the tree's pages to `out` in preorder for the v3 binary
  /// checkpoint (DESIGN.md §14): a {size, next_page_id, bulk_loaded} header,
  /// then per node {page_id, level, entry_count} and per entry its exact MBR
  /// doubles (entry-major: lo then hi, a leaf point twice) plus a leaf id or
  /// the child page recursively. FromPages restores
  /// the identical tree — same page ids, same node boundaries, same query
  /// page-access counts — without re-running STR packing.
  void SerializePages(std::string* out) const;

  /// Rebuild a tree from SerializePages bytes. Every structural property is
  /// re-validated (entry counts, uniform leaf depth, exact parent/child MBR
  /// agreement, finite non-inverted rectangles, trailing bytes): malformed
  /// input returns kCorruption and never aborts or reads out of bounds.
  static Status FromPages(std::size_t dims, std::string_view in,
                          RStarOptions options,
                          std::unique_ptr<RStarTree>* out);

 private:
  struct Node;
  struct Entry;

  Node* ChooseSubtree(Node* node, const Rect& rect, int target_level) const;
  void InsertEntry(Entry entry, int level);
  void SplitNode(Node* node);
  void AdjustUpward(Node* node);

  /// A node with room for `capacity` entries (rounded up to 4).
  std::unique_ptr<Node> NewNode(int level, std::size_t capacity);

  // Block accessors of the mutation and validation paths.
  Rect EntryRect(const Node& node, std::size_t i) const;
  void SetEntryRect(Node* node, std::size_t i, const Rect& r);
  /// The MBR of the node's entries (empty Rect for an empty node).
  Rect NodeMbr(const Node& node) const;
  /// Append one entry (count may reach M+1, the overflow slot).
  void AppendEntry(Node* node, Entry entry);
  /// Remove entry i, keeping the others in order.
  Entry RemoveEntry(Node* node, std::size_t i);
  /// Empty the node, returning its entries in order.
  std::vector<Entry> TakeEntries(Node* node);
  /// Fill an empty node with `entries` in order.
  void PutEntries(Node* node, std::vector<Entry> entries);

  std::size_t dims_;
  RStarOptions options_;
  std::size_t stride_;  // full node capacity: M+1 rounded up to 4
  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
  bool bulk_loaded_ = false;  // packing leaves one underfull node per level
  std::uint64_t next_page_id_ = 0;
};

}  // namespace humdex
