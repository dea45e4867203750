#include "index/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <queue>
#include <set>

#include "ts/kernels.h"
#include "util/status.h"

namespace humdex {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

struct FreeBlock {
  void operator()(double* p) const { std::free(p); }
};

constexpr std::size_t RoundUp4(std::size_t n) {
  return (n + 3) & ~std::size_t{3};
}
}  // namespace

// An entry lifted out of its node's block by the mutation path (insert,
// split, reinsert, delete). Nodes never store these.
struct RStarTree::Entry {
  Rect mbr;
  std::int64_t id = -1;          // set for leaf entries
  std::unique_ptr<Node> child;   // set for internal entries
};

struct RStarTree::Node {
  int level = 0;  // 0 = leaf
  std::uint64_t page_id = 0;
  Node* parent = nullptr;
  std::size_t count = 0;
  // Capacity in entries, a multiple of 4: M+1 (room for the overflow slot),
  // or a restored node's exact count until its first append.
  std::size_t stride = 0;
  // Dimension-major entry boxes: entry i's coordinate d at
  // block[d * stride + i]. An internal node's hi rows follow its dims lo
  // rows; a leaf's points serve as both.
  std::unique_ptr<double[], FreeBlock> block;
  std::unique_ptr<std::int64_t[]> ids;                // leaf, entry order
  std::unique_ptr<std::unique_ptr<Node>[]> children;  // internal, entry order

  bool IsLeaf() const { return level == 0; }
  double* hi(std::size_t dims) {
    return IsLeaf() ? block.get() : block.get() + dims * stride;
  }
  const double* hi(std::size_t dims) const {
    return IsLeaf() ? block.get() : block.get() + dims * stride;
  }

  /// (Re)allocate room for `capacity` entries, keeping the current ones.
  void Reserve(std::size_t dims, std::size_t capacity) {
    const std::size_t new_stride =
        RoundUp4(std::max<std::size_t>(capacity, 1));
    const std::size_t rows = (IsLeaf() ? 1 : 2) * dims;
    // A multiple of 4 doubles per row keeps the size a multiple of the
    // alignment, as aligned_alloc requires.
    void* p = std::aligned_alloc(kernels::kAlignment,
                                 rows * new_stride * sizeof(double));
    HUMDEX_CHECK(p != nullptr);
    std::unique_ptr<double[], FreeBlock> rows_block(static_cast<double*>(p));
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy(block.get() + r * stride, block.get() + r * stride + count,
                rows_block.get() + r * new_stride);
    }
    block = std::move(rows_block);
    if (IsLeaf()) {
      auto fresh = std::make_unique<std::int64_t[]>(new_stride);
      std::copy(ids.get(), ids.get() + count, fresh.get());
      ids = std::move(fresh);
    } else {
      auto fresh = std::make_unique<std::unique_ptr<Node>[]>(new_stride);
      std::move(children.get(), children.get() + count, fresh.get());
      children = std::move(fresh);
    }
    stride = new_stride;
  }
};

RStarTree::RStarTree(std::size_t dims, RStarOptions options)
    : dims_(dims),
      options_(options),
      stride_(RoundUp4(options.max_entries + 1)) {
  HUMDEX_CHECK(dims_ >= 1);
  HUMDEX_CHECK(options_.max_entries >= 4);
  HUMDEX_CHECK(options_.min_entries >= 2 &&
               options_.min_entries <= options_.max_entries / 2);
  HUMDEX_CHECK(options_.reinsert_count >= 1 &&
               options_.reinsert_count < options_.max_entries);
  // Forced reinsert must never drive a node below the minimum occupancy.
  HUMDEX_CHECK(options_.max_entries + 1 - options_.reinsert_count >=
               options_.min_entries);
  root_ = NewNode(0, stride_);
}

RStarTree::~RStarTree() = default;

std::unique_ptr<RStarTree::Node> RStarTree::NewNode(int level,
                                                   std::size_t capacity) {
  auto node = std::make_unique<Node>();
  node->level = level;
  node->page_id = next_page_id_++;
  node->Reserve(dims_, capacity);
  return node;
}

Rect RStarTree::EntryRect(const Node& node, std::size_t i) const {
  const double* lo = node.block.get();
  const double* hi = node.hi(dims_);
  Rect r;
  r.lo.resize(dims_);
  r.hi.resize(dims_);
  for (std::size_t d = 0; d < dims_; ++d) {
    r.lo[d] = lo[d * node.stride + i];
    r.hi[d] = hi[d * node.stride + i];
  }
  return r;
}

void RStarTree::SetEntryRect(Node* node, std::size_t i, const Rect& r) {
  HUMDEX_CHECK(r.dims() == dims_);
  double* lo = node->block.get();
  for (std::size_t d = 0; d < dims_; ++d) lo[d * node->stride + i] = r.lo[d];
  if (node->IsLeaf()) {
    HUMDEX_CHECK_MSG(r.lo == r.hi, "leaf entry is not a point");
    return;
  }
  double* hi = node->hi(dims_);
  for (std::size_t d = 0; d < dims_; ++d) hi[d * node->stride + i] = r.hi[d];
}

Rect RStarTree::NodeMbr(const Node& node) const {
  if (node.count == 0) return Rect();
  // Rect::Enlarge's fold, in entry order.
  Rect m = EntryRect(node, 0);
  const double* lo = node.block.get();
  const double* hi = node.hi(dims_);
  for (std::size_t d = 0; d < dims_; ++d) {
    for (std::size_t i = 1; i < node.count; ++i) {
      m.lo[d] = std::min(m.lo[d], lo[d * node.stride + i]);
      m.hi[d] = std::max(m.hi[d], hi[d * node.stride + i]);
    }
  }
  return m;
}

void RStarTree::AppendEntry(Node* node, Entry entry) {
  const std::size_t i = node->count;
  HUMDEX_CHECK(i <= options_.max_entries);  // M+1 slots: one overflow
  if (i == node->stride) node->Reserve(dims_, stride_);  // a restored node
  SetEntryRect(node, i, entry.mbr);
  if (node->IsLeaf()) {
    HUMDEX_CHECK(entry.child == nullptr);
    node->ids[i] = entry.id;
  } else {
    HUMDEX_CHECK(entry.child != nullptr);
    entry.child->parent = node;
    node->children[i] = std::move(entry.child);
  }
  node->count = i + 1;
}

RStarTree::Entry RStarTree::RemoveEntry(Node* node, std::size_t i) {
  HUMDEX_CHECK(i < node->count);
  Entry out;
  out.mbr = EntryRect(*node, i);
  const std::size_t last = node->count - 1;
  const std::size_t rows = (node->IsLeaf() ? 1 : 2) * dims_;
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = node->block.get() + r * node->stride;
    std::copy(row + i + 1, row + node->count, row + i);
  }
  if (node->IsLeaf()) {
    out.id = node->ids[i];
    std::copy(node->ids.get() + i + 1, node->ids.get() + node->count,
              node->ids.get() + i);
  } else {
    out.child = std::move(node->children[i]);
    std::move(node->children.get() + i + 1,
              node->children.get() + node->count, node->children.get() + i);
  }
  node->count = last;
  return out;
}

std::vector<RStarTree::Entry> RStarTree::TakeEntries(Node* node) {
  std::vector<Entry> out(node->count);
  for (std::size_t i = 0; i < node->count; ++i) {
    out[i].mbr = EntryRect(*node, i);
    if (node->IsLeaf()) {
      out[i].id = node->ids[i];
    } else {
      out[i].child = std::move(node->children[i]);
    }
  }
  node->count = 0;
  return out;
}

void RStarTree::PutEntries(Node* node, std::vector<Entry> entries) {
  HUMDEX_CHECK(node->count == 0);
  for (Entry& e : entries) AppendEntry(node, std::move(e));
}

namespace {

// Recursive sort-tile ordering: order `idx[lo, hi)` so that consecutive runs
// of `run` entries are spatially coherent. Sorts by the center on `dim`,
// splits into slabs sized to hold whole runs, recurses on the next dim.
void StrOrder(std::vector<std::size_t>* idx, std::size_t lo, std::size_t hi,
              const std::vector<Series>& centers, std::size_t dim,
              std::size_t max_dim, std::size_t run) {
  const std::size_t count = hi - lo;
  if (count <= run || dim >= max_dim) return;
  std::sort(idx->begin() + static_cast<std::ptrdiff_t>(lo),
            idx->begin() + static_cast<std::ptrdiff_t>(hi),
            [&](std::size_t a, std::size_t b) {
              return centers[a][dim] < centers[b][dim];
            });
  std::size_t runs = (count + run - 1) / run;
  double per_dim = std::pow(static_cast<double>(runs),
                            1.0 / static_cast<double>(max_dim - dim));
  std::size_t slabs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(per_dim)));
  std::size_t runs_per_slab = (runs + slabs - 1) / slabs;
  std::size_t slab_size = runs_per_slab * run;
  for (std::size_t start = lo; start < hi; start += slab_size) {
    StrOrder(idx, start, std::min(hi, start + slab_size), centers, dim + 1,
             max_dim, run);
  }
}

}  // namespace

std::unique_ptr<RStarTree> RStarTree::BulkLoad(std::size_t dims,
                                               const std::vector<Series>& points,
                                               const std::vector<std::int64_t>& ids,
                                               RStarOptions options) {
  HUMDEX_CHECK(points.size() == ids.size());
  auto tree = std::make_unique<RStarTree>(dims, options);
  if (points.empty()) return tree;
  for (const Series& p : points) HUMDEX_CHECK(p.size() == dims);
  const std::size_t fill = options.max_entries;
  const std::size_t capacity = fill + 1;

  // The sort-tile order of one level's entries, given their centers.
  auto tile = [&](const std::vector<Series>& centers) {
    std::vector<std::size_t> idx(centers.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    StrOrder(&idx, 0, idx.size(), centers, 0, dims, fill);
    return idx;
  };
  // Leaves take their points straight into the block.
  auto append_point = [&](Node* leaf, std::size_t i) {
    for (std::size_t d = 0; d < dims; ++d) {
      leaf->block[d * leaf->stride + leaf->count] = points[i][d];
    }
    leaf->ids[leaf->count++] = ids[i];
  };

  if (points.size() <= fill) {
    auto root = tree->NewNode(0, capacity);
    for (std::size_t i = 0; i < points.size(); ++i) append_point(root.get(), i);
    tree->root_ = std::move(root);
  } else {
    // Centers as Rect::Center computes them for a degenerate box.
    std::vector<Series> centers(points.size(), Series(dims));
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (std::size_t d = 0; d < dims; ++d) {
        centers[i][d] = 0.5 * (points[i][d] + points[i][d]);
      }
    }
    std::vector<std::size_t> idx = tile(centers);
    std::vector<std::unique_ptr<Node>> nodes;
    for (std::size_t start = 0; start < idx.size(); start += fill) {
      auto leaf = tree->NewNode(0, capacity);
      const std::size_t end = std::min(idx.size(), start + fill);
      for (std::size_t i = start; i < end; ++i) {
        append_point(leaf.get(), idx[i]);
      }
      nodes.push_back(std::move(leaf));
    }
    // Pack parents bottom-up until one node's worth of entries remains.
    int level = 1;
    auto adopt = [&](Node* parent, std::unique_ptr<Node> child,
                     const Rect& mbr) {
      Entry e;
      e.mbr = mbr;
      e.child = std::move(child);
      tree->AppendEntry(parent, std::move(e));
    };
    while (nodes.size() > fill) {
      std::vector<Rect> mbrs(nodes.size());
      centers.assign(nodes.size(), Series(dims));
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        mbrs[i] = tree->NodeMbr(*nodes[i]);
        for (std::size_t d = 0; d < dims; ++d) {
          centers[i][d] = mbrs[i].Center(d);
        }
      }
      idx = tile(centers);
      std::vector<std::unique_ptr<Node>> parents;
      for (std::size_t start = 0; start < idx.size(); start += fill) {
        auto parent = tree->NewNode(level, capacity);
        const std::size_t end = std::min(idx.size(), start + fill);
        for (std::size_t i = start; i < end; ++i) {
          adopt(parent.get(), std::move(nodes[idx[i]]), mbrs[idx[i]]);
        }
        parents.push_back(std::move(parent));
      }
      nodes = std::move(parents);
      ++level;
    }
    auto root = tree->NewNode(level, capacity);
    for (std::unique_ptr<Node>& child : nodes) {
      const Rect mbr = tree->NodeMbr(*child);
      adopt(root.get(), std::move(child), mbr);
    }
    tree->root_ = std::move(root);
  }
  tree->size_ = points.size();
  tree->bulk_loaded_ = true;
  return tree;
}

namespace {

double CenterDistSq(const Rect& a, const Rect& b) {
  double s = 0.0;
  for (std::size_t d = 0; d < a.dims(); ++d) {
    double g = a.Center(d) - b.Center(d);
    s += g * g;
  }
  return s;
}

}  // namespace

RStarTree::Node* RStarTree::ChooseSubtree(Node* node, const Rect& rect,
                                          int target_level) const {
  std::vector<Rect> mbrs;
  while (node->level > target_level) {
    mbrs.resize(node->count);
    for (std::size_t i = 0; i < node->count; ++i) mbrs[i] = EntryRect(*node, i);
    std::size_t best = 0;
    if (node->level == 1) {
      // Children are leaves: minimize overlap enlargement (R* heuristic),
      // ties by area enlargement, then by area.
      double best_overlap = kInf, best_enl = kInf,
             best_area = kInf;
      for (std::size_t i = 0; i < mbrs.size(); ++i) {
        Rect grown = mbrs[i];
        grown.Enlarge(rect);
        double overlap_delta = 0.0;
        for (std::size_t j = 0; j < mbrs.size(); ++j) {
          if (j == i) continue;
          overlap_delta +=
              grown.OverlapArea(mbrs[j]) - mbrs[i].OverlapArea(mbrs[j]);
        }
        double enl = mbrs[i].Enlargement(rect);
        double area = mbrs[i].Area();
        if (overlap_delta < best_overlap ||
            (overlap_delta == best_overlap &&
             (enl < best_enl || (enl == best_enl && area < best_area)))) {
          best = i;
          best_overlap = overlap_delta;
          best_enl = enl;
          best_area = area;
        }
      }
    } else {
      // Minimize area enlargement, ties by area.
      double best_enl = kInf, best_area = kInf;
      for (std::size_t i = 0; i < mbrs.size(); ++i) {
        double enl = mbrs[i].Enlargement(rect);
        double area = mbrs[i].Area();
        if (enl < best_enl || (enl == best_enl && area < best_area)) {
          best = i;
          best_enl = enl;
          best_area = area;
        }
      }
    }
    node = node->children[best].get();
  }
  return node;
}

void RStarTree::AdjustUpward(Node* node) {
  while (node->parent != nullptr) {
    Node* parent = node->parent;
    // Refresh the parent's copy of this child's MBR. An emptied node keeps
    // its stale copy: Delete's condense step detaches it next.
    if (node->count > 0) {
      for (std::size_t i = 0; i < parent->count; ++i) {
        if (parent->children[i].get() == node) {
          SetEntryRect(parent, i, NodeMbr(*node));
          break;
        }
      }
    }
    node = parent;
  }
}

void RStarTree::Insert(const Series& point, std::int64_t id) {
  HUMDEX_CHECK(point.size() == dims_);
  Entry e;
  e.mbr = Rect::FromPoint(point);
  e.id = id;
  InsertEntry(std::move(e), 0);
  ++size_;
}

bool RStarTree::Delete(const Series& point, std::int64_t id) {
  HUMDEX_CHECK(point.size() == dims_);
  // Find the leaf holding the exact (point, id) entry.
  Node* leaf = nullptr;
  std::size_t entry_pos = 0;
  {
    const Rect probe = Rect::FromPoint(point);
    std::vector<Node*> stack{root_.get()};
    while (!stack.empty() && leaf == nullptr) {
      Node* n = stack.back();
      stack.pop_back();
      if (n->IsLeaf()) {
        for (std::size_t i = 0; i < n->count; ++i) {
          if (n->ids[i] != id) continue;
          bool same = true;
          for (std::size_t d = 0; d < dims_; ++d) {
            same = same && n->block[d * n->stride + i] == point[d];
          }
          if (same) {
            leaf = n;
            entry_pos = i;
            break;
          }
        }
      } else {
        for (std::size_t i = 0; i < n->count; ++i) {
          if (EntryRect(*n, i).MinDistSq(probe) == 0.0) {
            stack.push_back(n->children[i].get());
          }
        }
      }
    }
  }
  if (leaf == nullptr) return false;

  RemoveEntry(leaf, entry_pos);
  AdjustUpward(leaf);
  --size_;

  // Condense: dissolve underfull nodes bottom-up, collecting orphans.
  const std::size_t min_fill = bulk_loaded_ ? 1 : options_.min_entries;
  struct Orphan {
    Entry entry;
    int level;
  };
  std::vector<Orphan> orphans;
  Node* node = leaf;
  while (node != root_.get() && node->count < min_fill) {
    Node* parent = node->parent;
    // Detach this node from its parent, keeping its entries as orphans.
    std::size_t child_pos = SIZE_MAX;
    for (std::size_t i = 0; i < parent->count; ++i) {
      if (parent->children[i].get() == node) {
        child_pos = i;
        break;
      }
    }
    HUMDEX_CHECK(child_pos != SIZE_MAX);
    std::unique_ptr<Node> detached = RemoveEntry(parent, child_pos).child;
    for (Entry& e : TakeEntries(detached.get())) {
      orphans.push_back({std::move(e), detached->level});
    }
    AdjustUpward(parent);
    node = parent;
  }

  // Collapse a single-child internal root.
  while (!root_->IsLeaf() && root_->count == 1) {
    std::unique_ptr<Node> child = std::move(root_->children[0]);
    child->parent = nullptr;
    root_ = std::move(child);
  }

  // Reinsert orphans at their original levels (entry level = node level).
  for (Orphan& o : orphans) {
    if (root_->level < o.level) {
      // The tree shrank below the orphan's level; descend into its subtree
      // and reinsert the leaves instead. (Rare: only tiny trees.)
      std::vector<Entry> pending;
      pending.push_back(std::move(o.entry));
      while (!pending.empty()) {
        Entry e = std::move(pending.back());
        pending.pop_back();
        if (e.child == nullptr) {
          InsertEntry(std::move(e), 0);
        } else if (e.child->level < root_->level) {
          const int level = e.child->level + 1;
          InsertEntry(std::move(e), level);
        } else {
          for (Entry& sub : TakeEntries(e.child.get())) {
            pending.push_back(std::move(sub));
          }
        }
      }
    } else {
      InsertEntry(std::move(o.entry), o.level);
    }
  }
  return true;
}

void RStarTree::InsertEntry(Entry entry, int level) {
  std::set<int> reinserted_levels;
  // Queue of pending (entry, level) pairs: forced reinsertion feeds back here.
  struct Pending {
    Entry entry;
    int level;
  };
  std::vector<Pending> pending;
  pending.push_back({std::move(entry), level});

  while (!pending.empty()) {
    Pending p = std::move(pending.back());
    pending.pop_back();
    HUMDEX_CHECK(root_->level >= p.level);
    Node* target = ChooseSubtree(root_.get(), p.entry.mbr, p.level);
    AppendEntry(target, std::move(p.entry));
    AdjustUpward(target);

    // Overflow treatment, possibly cascading to ancestors.
    Node* node = target;
    while (node != nullptr && node->count > options_.max_entries) {
      if (node != root_.get() &&
          reinserted_levels.find(node->level) == reinserted_levels.end()) {
        reinserted_levels.insert(node->level);
        // Forced reinsert: remove the p entries whose centers are farthest
        // from the node center, then re-queue them (closest first).
        const Rect node_mbr = NodeMbr(*node);
        std::vector<Entry> entries = TakeEntries(node);
        std::stable_sort(entries.begin(), entries.end(),
                         [&](const Entry& a, const Entry& b) {
                           return CenterDistSq(a.mbr, node_mbr) <
                                  CenterDistSq(b.mbr, node_mbr);
                         });
        const std::size_t keep = entries.size() - options_.reinsert_count;
        std::vector<Entry> removed;
        removed.reserve(options_.reinsert_count);
        for (std::size_t i = keep; i < entries.size(); ++i) {
          removed.push_back(std::move(entries[i]));
        }
        entries.resize(keep);
        PutEntries(node, std::move(entries));
        AdjustUpward(node);
        // Closest-first reinsertion: pending is a LIFO stack, so push the
        // farthest first.
        for (std::size_t i = removed.size(); i > 0; --i) {
          pending.push_back({std::move(removed[i - 1]), node->level});
        }
        break;  // this node no longer overflows
      }
      Node* parent = node->parent;
      SplitNode(node);
      node = parent;
    }
  }
}

void RStarTree::SplitNode(Node* node) {
  std::vector<Entry> entries = TakeEntries(node);
  const std::size_t total = entries.size();
  const std::size_t m = options_.min_entries;
  HUMDEX_CHECK(total >= 2 * m);

  // R* split. Step 1: choose the split axis by minimum total margin over all
  // candidate distributions of entries sorted by lower then by upper bound.
  std::size_t best_axis = 0;
  bool best_axis_by_upper = false;
  double best_margin_sum = kInf;
  std::vector<std::size_t> order(total);

  auto sort_order = [&](std::size_t axis, bool by_upper) {
    for (std::size_t i = 0; i < total; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const Rect& ra = entries[a].mbr;
      const Rect& rb = entries[b].mbr;
      return by_upper ? ra.hi[axis] < rb.hi[axis] : ra.lo[axis] < rb.lo[axis];
    });
  };

  // Prefix/suffix MBRs across the sorted order.
  std::vector<Rect> prefix(total), suffix(total);
  auto fill_prefix_suffix = [&]() {
    Rect acc;
    for (std::size_t i = 0; i < total; ++i) {
      acc.Enlarge(entries[order[i]].mbr);
      prefix[i] = acc;
    }
    acc = Rect();
    for (std::size_t i = total; i > 0; --i) {
      acc.Enlarge(entries[order[i - 1]].mbr);
      suffix[i - 1] = acc;
    }
  };

  for (std::size_t axis = 0; axis < dims_; ++axis) {
    for (bool by_upper : {false, true}) {
      sort_order(axis, by_upper);
      fill_prefix_suffix();
      double s = 0.0;
      for (std::size_t split = m; split + m <= total; ++split) {
        s += prefix[split - 1].Margin() + suffix[split].Margin();
      }
      if (s < best_margin_sum) {
        best_margin_sum = s;
        best_axis = axis;
        best_axis_by_upper = by_upper;
      }
    }
  }

  // Step 2: along the chosen axis, pick the distribution with minimum
  // overlap, ties by total area.
  sort_order(best_axis, best_axis_by_upper);
  fill_prefix_suffix();
  std::size_t best_split = m;
  double best_overlap = kInf, best_area = kInf;
  for (std::size_t split = m; split + m <= total; ++split) {
    double overlap = prefix[split - 1].OverlapArea(suffix[split]);
    double area = prefix[split - 1].Area() + suffix[split].Area();
    if (overlap < best_overlap || (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_split = split;
    }
  }

  // Materialize the two groups.
  std::vector<Entry> group_a, group_b;
  group_a.reserve(best_split);
  group_b.reserve(total - best_split);
  for (std::size_t i = 0; i < total; ++i) {
    Entry& e = entries[order[i]];
    (i < best_split ? group_a : group_b).push_back(std::move(e));
  }

  auto sibling = NewNode(node->level, stride_);
  PutEntries(sibling.get(), std::move(group_b));
  PutEntries(node, std::move(group_a));

  auto child_entry = [this](std::unique_ptr<Node> child) {
    Entry e;
    e.mbr = NodeMbr(*child);
    e.child = std::move(child);
    return e;
  };
  if (node == root_.get()) {
    // Grow the tree: new root adopts the old root and its sibling.
    auto new_root = NewNode(node->level + 1, stride_);
    AppendEntry(new_root.get(), child_entry(std::move(root_)));
    AppendEntry(new_root.get(), child_entry(std::move(sibling)));
    root_ = std::move(new_root);
  } else {
    AppendEntry(node->parent, child_entry(std::move(sibling)));
    // Starting at `node` also refreshes the parent's stale entry for it.
    AdjustUpward(node);
  }
}

std::vector<std::int64_t> RStarTree::RangeQuery(const Rect& query, double radius,
                                                IndexStats* stats) const {
  HUMDEX_CHECK(query.dims() == dims_);
  HUMDEX_CHECK(radius >= 0.0);
  const double r2 = radius * radius;
  const kernels::MindistSqBlockFn score =
      kernels::ActiveKernels().mindist_sq_block;
  std::vector<std::int64_t> out;
  std::vector<double> scores(stride_);
  std::vector<const Node*> hits(stride_);
  std::size_t pages = 0;

  // Preorder: children are pushed last-first, so leaves are emitted in the
  // order SerializePages writes them.
  std::vector<const Node*> stack;
  stack.push_back(root_.get());
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    ++pages;
    // Pin while the node is scanned so a concurrent reader's miss cannot
    // evict a page that is actively being read.
    LruBufferPool::PageGuard guard;
    if (pool_ != nullptr) guard = pool_->Pin(node->page_id);
    score(query.lo.data(), query.hi.data(), node->block.get(),
          node->hi(dims_), dims_, node->count, node->stride, scores.data());
    // Branch-free compaction: every entry is written, survivors advance.
    std::size_t kept = 0;
    if (node->IsLeaf()) {
      const std::size_t base = out.size();
      out.resize(base + node->count);
      std::int64_t* dst = out.data() + base;
      for (std::size_t i = 0; i < node->count; ++i) {
        dst[kept] = node->ids[i];
        kept += scores[i] <= r2 ? 1 : 0;
      }
      out.resize(base + kept);
    } else {
      for (std::size_t i = 0; i < node->count; ++i) {
        hits[kept] = node->children[i].get();
        kept += scores[i] <= r2 ? 1 : 0;
      }
      for (std::size_t i = kept; i > 0; --i) stack.push_back(hits[i - 1]);
    }
  }
  if (stats != nullptr) stats->page_accesses = pages;
  return out;
}

std::vector<Neighbor> RStarTree::KnnQuery(const Series& query, std::size_t k,
                                          IndexStats* stats) const {
  return NearestToRect(Rect::FromPoint(query), k, stats);
}

std::vector<Neighbor> RStarTree::NearestToRect(const Rect& query, std::size_t k,
                                               IndexStats* stats) const {
  HUMDEX_CHECK(query.dims() == dims_);
  // Hjaltason-Samet best-first search over both nodes and points, keyed by
  // squared MINDIST to the query rectangle. Entries are pushed in entry
  // order, which fixes the order equal keys pop in.
  struct PqItem {
    double key;
    const Node* node;  // non-null for node items
    std::int64_t id;   // point items

    bool operator>(const PqItem& other) const { return key > other.key; }
  };
  const kernels::MindistSqBlockFn score =
      kernels::ActiveKernels().mindist_sq_block;
  std::vector<double> scores(stride_);
  std::priority_queue<PqItem, std::vector<PqItem>, std::greater<PqItem>> pq;
  pq.push({0.0, root_.get(), -1});
  std::vector<Neighbor> out;
  std::size_t pages = 0;

  while (!pq.empty() && out.size() < k) {
    PqItem item = pq.top();
    pq.pop();
    if (item.node == nullptr) {
      out.push_back({item.id, std::sqrt(item.key)});
      continue;
    }
    const Node* node = item.node;
    ++pages;
    LruBufferPool::PageGuard guard;
    if (pool_ != nullptr) guard = pool_->Pin(node->page_id);
    score(query.lo.data(), query.hi.data(), node->block.get(),
          node->hi(dims_), dims_, node->count, node->stride, scores.data());
    for (std::size_t i = 0; i < node->count; ++i) {
      if (node->IsLeaf()) {
        pq.push({scores[i], nullptr, node->ids[i]});
      } else {
        pq.push({scores[i], node->children[i].get(), -1});
      }
    }
  }
  if (stats != nullptr) stats->page_accesses = pages;
  return out;
}

void RStarTree::SerializePages(std::string* out) const {
  auto put = [&](const void* p, std::size_t n) {
    out->append(static_cast<const char*>(p), n);
  };
  auto put_u64 = [&](std::uint64_t v) { put(&v, 8); };
  put_u64(size_);
  put_u64(next_page_id_);
  out->push_back(bulk_loaded_ ? 1 : 0);
  auto walk = [&](auto&& self, const Node* n) -> void {
    put_u64(n->page_id);
    std::uint32_t lvl = static_cast<std::uint32_t>(n->level);
    std::uint32_t cnt = static_cast<std::uint32_t>(n->count);
    put(&lvl, 4);
    put(&cnt, 4);
    for (std::size_t i = 0; i < n->count; ++i) {
      // Entry-major on disk: the block is transposed entry by entry.
      const Rect r = EntryRect(*n, i);
      put(r.lo.data(), dims_ * sizeof(double));
      put(r.hi.data(), dims_ * sizeof(double));
      if (n->IsLeaf()) {
        put(&n->ids[i], 8);
      } else {
        self(self, n->children[i].get());
      }
    }
  };
  walk(walk, root_.get());
}

namespace {

/// Bounds-checked little-endian cursor for FromPages.
struct PageReader {
  std::string_view in;
  std::size_t pos = 0;

  bool Read(void* out, std::size_t n) {
    if (in.size() - pos < n) return false;
    std::memcpy(out, in.data() + pos, n);
    pos += n;
    return true;
  }
};

}  // namespace

Status RStarTree::FromPages(std::size_t dims, std::string_view in,
                            RStarOptions options,
                            std::unique_ptr<RStarTree>* out) {
  auto bad = [](const char* what) { return Status::Corruption(what); };
  PageReader r{in};
  std::uint64_t size = 0, next_page = 0;
  std::uint8_t bulk = 0;
  if (!r.Read(&size, 8) || !r.Read(&next_page, 8) || !r.Read(&bulk, 1)) {
    return bad("index page header truncated");
  }
  auto tree = std::make_unique<RStarTree>(dims, options);
  RStarTree* t = tree.get();
  std::uint64_t leaf_entries = 0;
  Status err;
  auto parse = [&](auto&& self, int expect_level,
                   Node* parent) -> std::unique_ptr<Node> {
    std::uint64_t pid = 0;
    std::uint32_t lvl = 0, cnt = 0;
    if (!r.Read(&pid, 8) || !r.Read(&lvl, 4) || !r.Read(&cnt, 4)) {
      err = bad("index page truncated");
      return nullptr;
    }
    // 64 levels of fanout >= 2 exceed any storable tree; the cap also bounds
    // the parse recursion on adversarial input.
    if (lvl > 64) {
      err = bad("index page level out of range");
      return nullptr;
    }
    if (expect_level >= 0 && static_cast<int>(lvl) != expect_level) {
      err = bad("index page level mismatch");
      return nullptr;
    }
    if (cnt > options.max_entries) {
      err = bad("overfull index page");
      return nullptr;
    }
    if (cnt == 0 && (parent != nullptr || size != 0)) {
      err = bad("empty non-root index page");
      return nullptr;
    }
    if (pid >= next_page) {
      err = bad("index page id out of range");
      return nullptr;
    }
    // Sized to the stored entries, not M+1: a node's memory stays
    // proportional to its bytes in the file until a mutation widens it.
    auto node = t->NewNode(static_cast<int>(lvl), cnt);
    node->page_id = pid;
    node->parent = parent;
    Rect entry;
    entry.lo.resize(dims);
    entry.hi.resize(dims);
    for (std::uint32_t i = 0; i < cnt; ++i) {
      if (!r.Read(entry.lo.data(), dims * sizeof(double)) ||
          !r.Read(entry.hi.data(), dims * sizeof(double))) {
        err = bad("index entry truncated");
        return nullptr;
      }
      for (std::size_t d = 0; d < dims; ++d) {
        if (!std::isfinite(entry.lo[d]) || !std::isfinite(entry.hi[d]) ||
            entry.lo[d] > entry.hi[d]) {
          err = bad("invalid index entry rectangle");
          return nullptr;
        }
      }
      if (node->IsLeaf()) {
        // A leaf block holds each point once.
        if (std::memcmp(entry.lo.data(), entry.hi.data(),
                        dims * sizeof(double)) != 0) {
          err = bad("index leaf entry is not a point");
          return nullptr;
        }
        if (!r.Read(&node->ids[i], 8)) {
          err = bad("index entry truncated");
          return nullptr;
        }
        if (++leaf_entries > size) {
          err = bad("index leaf entries exceed recorded size");
          return nullptr;
        }
      } else {
        node->children[i] = self(self, static_cast<int>(lvl) - 1, node.get());
        if (node->children[i] == nullptr) return nullptr;
        const Rect child = t->NodeMbr(*node->children[i]);
        if (child.lo != entry.lo || child.hi != entry.hi) {
          err = bad("index parent/child MBR disagreement");
          return nullptr;
        }
      }
      t->SetEntryRect(node.get(), i, entry);
      node->count = i + 1;
    }
    return node;
  };
  auto root = parse(parse, -1, nullptr);
  if (root == nullptr) return err;
  if (leaf_entries != size) {
    return bad("index leaf entries disagree with recorded size");
  }
  if (r.pos != in.size()) return bad("trailing bytes after index pages");
  tree->root_ = std::move(root);
  tree->size_ = static_cast<std::size_t>(size);
  tree->next_page_id_ = next_page;
  tree->bulk_loaded_ = bulk != 0;
  *out = std::move(tree);
  return Status::OK();
}

std::size_t RStarTree::Height() const {
  return static_cast<std::size_t>(root_->level) + 1;
}

std::size_t RStarTree::NodeCount() const {
  std::size_t count = 0;
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    ++count;
    if (!n->IsLeaf()) {
      for (std::size_t i = 0; i < n->count; ++i) {
        stack.push_back(n->children[i].get());
      }
    }
  }
  return count;
}

void RStarTree::CheckInvariants() const {
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n != root_.get()) {
      // STR packing legitimately leaves one underfull tail node per level.
      std::size_t min_fill = bulk_loaded_ ? 1 : options_.min_entries;
      HUMDEX_CHECK_MSG(n->count >= min_fill, "underfull non-root node");
    }
    HUMDEX_CHECK_MSG(n->count <= options_.max_entries, "overfull node");
    HUMDEX_CHECK_MSG(n->IsLeaf() ? n->ids != nullptr && n->children == nullptr
                                 : n->children != nullptr && n->ids == nullptr,
                     "node arrays do not match its level");
    for (std::size_t i = 0; i < n->count; ++i) {
      const Rect r = EntryRect(*n, i);
      for (std::size_t d = 0; d < dims_; ++d) {
        HUMDEX_CHECK_MSG(r.lo[d] <= r.hi[d], "inverted entry rectangle");
      }
      if (n->IsLeaf()) continue;
      const Node* child = n->children[i].get();
      HUMDEX_CHECK_MSG(child != nullptr, "internal entry without child");
      HUMDEX_CHECK_MSG(child->level == n->level - 1, "level mismatch");
      HUMDEX_CHECK_MSG(child->parent == n, "bad parent pointer");
      const Rect mbr = NodeMbr(*child);
      HUMDEX_CHECK_MSG(mbr.lo == r.lo && mbr.hi == r.hi,
                       "stale child MBR copy in parent entry");
      stack.push_back(child);
    }
  }
}

}  // namespace humdex
