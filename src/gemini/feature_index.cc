#include "gemini/feature_index.h"

#include <limits>

#include "util/status.h"

namespace humdex {

FeatureIndex::FeatureIndex(std::shared_ptr<const FeatureScheme> scheme,
                           FeatureIndexOptions options)
    : scheme_(std::move(scheme)), rstar_options_(options.rstar) {
  HUMDEX_CHECK(scheme_ != nullptr);
  const std::size_t dims = scheme_->output_dim();
  switch (options.kind) {
    case IndexKind::kRStarTree:
      index_ = std::make_unique<RStarTree>(dims, options.rstar);
      break;
    case IndexKind::kGridFile:
      index_ = std::make_unique<GridFile>(dims, options.grid);
      break;
    case IndexKind::kLinearScan:
      index_ = std::make_unique<LinearScanIndex>(dims, options.linear_points_per_page);
      break;
  }
}

void FeatureIndex::Add(const Series& series, std::int64_t id) {
  index_->Insert(scheme_->Features(series), id);
}

bool FeatureIndex::Remove(const Series& series, std::int64_t id) {
  return index_->Delete(scheme_->Features(series), id);
}

void FeatureIndex::AddBatch(const std::vector<Series>& series,
                            const std::vector<std::int64_t>& ids) {
  HUMDEX_CHECK(series.size() == ids.size());
  HUMDEX_CHECK_MSG(index_->size() == 0, "AddBatch on a non-empty index");
  if (dynamic_cast<RStarTree*>(index_.get()) != nullptr) {
    std::vector<Series> features;
    features.reserve(series.size());
    for (const Series& s : series) features.push_back(scheme_->Features(s));
    index_ = RStarTree::BulkLoad(scheme_->output_dim(), features, ids, rstar_options_);
    return;
  }
  for (std::size_t i = 0; i < series.size(); ++i) Add(series[i], ids[i]);
}

void FeatureIndex::AddBatchFeatures(const std::vector<Series>& features,
                                    const std::vector<std::int64_t>& ids) {
  HUMDEX_CHECK(features.size() == ids.size());
  HUMDEX_CHECK_MSG(index_->size() == 0, "AddBatchFeatures on a non-empty index");
  if (dynamic_cast<RStarTree*>(index_.get()) != nullptr) {
    index_ =
        RStarTree::BulkLoad(scheme_->output_dim(), features, ids, rstar_options_);
    return;
  }
  for (std::size_t i = 0; i < features.size(); ++i) {
    index_->Insert(features[i], ids[i]);
  }
}

void FeatureIndex::AttachRStarTree(std::unique_ptr<RStarTree> tree) {
  HUMDEX_CHECK(tree != nullptr);
  HUMDEX_CHECK_MSG(index_->size() == 0, "AttachRStarTree on a non-empty index");
  HUMDEX_CHECK_MSG(dynamic_cast<RStarTree*>(index_.get()) != nullptr,
                   "AttachRStarTree on a non-R*-tree backend");
  index_ = std::move(tree);
}

std::vector<std::int64_t> FeatureIndex::IdsInProbeOrder() const {
  const Rect origin = Rect::FromPoint(Series(scheme_->output_dim(), 0.0));
  std::vector<std::int64_t> ids =
      index_->RangeQuery(origin, std::numeric_limits<double>::infinity());
  HUMDEX_CHECK_MSG(ids.size() == index_->size(),
                   "full-radius probe missed stored ids");
  return ids;
}

std::vector<std::int64_t> FeatureIndex::CandidatesForEnvelope(
    const Envelope& raw_envelope, double radius, IndexStats* stats) const {
  Envelope fe = scheme_->ReduceEnvelope(raw_envelope);
  return index_->RangeQuery(Rect::FromEnvelope(fe), radius, stats);
}

std::vector<Neighbor> FeatureIndex::NearestFeatures(const Series& raw_query,
                                                    std::size_t k,
                                                    IndexStats* stats) const {
  return index_->KnnQuery(scheme_->Features(raw_query), k, stats);
}

std::vector<Neighbor> FeatureIndex::NearestToEnvelope(const Envelope& raw_envelope,
                                                      std::size_t k,
                                                      IndexStats* stats) const {
  Envelope fe = scheme_->ReduceEnvelope(raw_envelope);
  return index_->NearestToRect(Rect::FromEnvelope(fe), k, stats);
}

}  // namespace humdex
