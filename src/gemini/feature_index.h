// FeatureIndex: a spatial index over the feature vectors of a corpus,
// queried with transformed query envelopes (GEMINI steps 1-4 of §4.3).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "index/grid_file.h"
#include "index/linear_scan.h"
#include "index/rect.h"
#include "index/rstar_tree.h"
#include "transform/feature_scheme.h"

namespace humdex {

/// Which multidimensional index structure backs the feature space.
enum class IndexKind { kRStarTree, kGridFile, kLinearScan };

/// Options for constructing the backing index.
struct FeatureIndexOptions {
  IndexKind kind = IndexKind::kRStarTree;
  RStarOptions rstar;
  GridFileOptions grid;
  std::size_t linear_points_per_page = 64;
};

/// Maps raw series to feature vectors via a FeatureScheme and indexes them.
class FeatureIndex {
 public:
  FeatureIndex(std::shared_ptr<const FeatureScheme> scheme,
               FeatureIndexOptions options = FeatureIndexOptions());

  /// Index the features of a raw series (length must equal the scheme's
  /// input_dim) under `id`.
  void Add(const Series& series, std::int64_t id);

  /// Remove the entry previously added for (series, id). Returns false when
  /// absent.
  bool Remove(const Series& series, std::int64_t id);

  /// Bulk-build from a whole corpus at once. With an R*-tree backend this
  /// uses STR packing (fewer nodes, fewer page accesses per query than
  /// incremental insertion); other backends fall back to repeated Add.
  /// Only valid while the index is empty.
  void AddBatch(const std::vector<Series>& series,
                const std::vector<std::int64_t>& ids);

  /// AddBatch over already-computed feature vectors (each of output_dim) —
  /// the v3 fast-open path, which persists features precisely so reopening
  /// skips the per-series scheme transform. Only valid while empty.
  void AddBatchFeatures(const std::vector<Series>& features,
                        const std::vector<std::int64_t>& ids);

  /// The backing R*-tree, or nullptr on other backends — the persistence
  /// layer's hook for page-level serialization (RStarTree::SerializePages).
  const RStarTree* rstar_tree() const {
    return dynamic_cast<const RStarTree*>(index_.get());
  }

  /// Replace the (empty) backing index with a tree restored from serialized
  /// pages (RStarTree::FromPages) — the v3 fast-open path for the R*-tree
  /// backend. The tree must have been built over this scheme's features.
  void AttachRStarTree(std::unique_ptr<RStarTree> tree);

  /// Every stored id, in the order a full-radius probe emits them: the
  /// R*-tree's leaf preorder (the order its pages serialize in), a linear
  /// scan's insertion order, a grid file's bucket order. The engine lays its
  /// arena rows out in this order, so a probe's candidates arrive in
  /// ascending row order.
  std::vector<std::int64_t> IdsInProbeOrder() const;

  /// Ids whose features lie within `radius` of the reduced query envelope.
  /// By Theorem 1 this is a superset of every id with DTW distance <= radius
  /// from the query the envelope was built from.
  std::vector<std::int64_t> CandidatesForEnvelope(const Envelope& raw_envelope,
                                                  double radius,
                                                  IndexStats* stats = nullptr) const;

  /// k nearest feature vectors to Features(query) — a heuristic seed for the
  /// multi-step kNN algorithm (feature distances lower-bound Euclidean, not
  /// DTW, so this is not by itself a DTW kNN answer).
  std::vector<Neighbor> NearestFeatures(const Series& raw_query, std::size_t k,
                                        IndexStats* stats = nullptr) const;

  /// k stored items ranked by feature-space MINDIST to the reduced query
  /// envelope — i.e. by their DTW *lower bound* (Theorem 1). The returned
  /// distances are those lower bounds. Drives the optimal multi-step kNN.
  std::vector<Neighbor> NearestToEnvelope(const Envelope& raw_envelope,
                                          std::size_t k,
                                          IndexStats* stats = nullptr) const;

  const FeatureScheme& scheme() const { return *scheme_; }
  std::size_t size() const { return index_->size(); }

 private:
  std::shared_ptr<const FeatureScheme> scheme_;
  std::unique_ptr<SpatialIndex> index_;
  RStarOptions rstar_options_;  // kept for the AddBatch bulk-load path
};

}  // namespace humdex
