// Ablation (beyond the paper's figures): the same New_PAA feature space
// served by the three index substrates — R*-tree, grid file, linear scan —
// comparing page accesses at equal candidate sets. The paper uses an R*-tree
// and mentions grid files ([35]); this quantifies the choice. The tree and
// the scan score the same dimension-major blocks with the same SIMD kernel,
// so their per-query probe times (median over the queries) compare the
// structures, not the entry representation.
#include <cstdio>

#include "common.h"
#include "gemini/feature_index.h"
#include "obs/trace.h"
#include "ts/dtw.h"
#include "util/random.h"
#include "util/stats.h"

namespace humdex::bench {
namespace {

int Run() {
  const std::size_t kCorpusSize = 20000;
  const std::size_t kLen = 128;
  const std::size_t kDim = 8;
  const std::size_t kQueries = 60;
  const double kWidth = 0.1;
  const std::size_t kBand = BandRadiusForWidth(kWidth, kLen);

  PrintBanner("Ablation: index substrate (R*-tree vs grid file vs linear scan)",
              std::to_string(kCorpusSize) +
                  " melodies, New_PAA 128 -> 8 dims, width 0.1");

  auto corpus = PhraseCorpus(kCorpusSize, /*seed=*/606060);
  auto normals = CorpusNormalForms(corpus, kLen);
  auto query_corpus = PhraseCorpus(kQueries, /*seed=*/70707);
  auto queries = CorpusNormalForms(query_corpus, kLen);

  auto scheme = MakeNewPaaScheme(kLen, kDim);
  FeatureIndexOptions rstar_opt, grid_opt, linear_opt;
  rstar_opt.kind = IndexKind::kRStarTree;
  grid_opt.kind = IndexKind::kGridFile;
  linear_opt.kind = IndexKind::kLinearScan;
  FeatureIndex rstar(scheme, rstar_opt);
  FeatureIndex grid(scheme, grid_opt);
  FeatureIndex linear(scheme, linear_opt);
  for (std::size_t i = 0; i < normals.size(); ++i) {
    rstar.Add(normals[i], static_cast<std::int64_t>(i));
    grid.Add(normals[i], static_cast<std::int64_t>(i));
    linear.Add(normals[i], static_cast<std::int64_t>(i));
  }

  Rng rng(11);
  std::vector<double> dists;
  for (int s = 0; s < 200; ++s) {
    std::size_t i = rng.NextBounded(static_cast<std::uint32_t>(normals.size()));
    std::size_t j = rng.NextBounded(static_cast<std::uint32_t>(normals.size()));
    if (i == j) continue;
    dists.push_back(LdtwDistance(normals[i], normals[j], kBand));
  }
  double base_radius = Percentile(dists, 5.0);

  Table table({"eps", "cand (all)", "R* pages", "Grid pages", "Scan pages",
               "R* index_ns", "Scan index_ns"});
  bool agree = true, tree_wins = true;
  for (double eps : {0.2, 0.5, 0.8}) {
    double radius = eps * base_radius;
    double cand = 0.0, p_rstar = 0.0, p_grid = 0.0, p_scan = 0.0;
    std::vector<double> ns_rstar, ns_scan;
    for (const Series& q : queries) {
      Envelope env = BuildEnvelope(q, kBand);
      IndexStats rs, gs, ls;
      const std::uint64_t t0 = obs::MonotonicNowNs();
      auto a = rstar.CandidatesForEnvelope(env, radius, &rs);
      const std::uint64_t t1 = obs::MonotonicNowNs();
      auto b = grid.CandidatesForEnvelope(env, radius, &gs);
      const std::uint64_t t2 = obs::MonotonicNowNs();
      auto c = linear.CandidatesForEnvelope(env, radius, &ls);
      const std::uint64_t t3 = obs::MonotonicNowNs();
      ns_rstar.push_back(static_cast<double>(t1 - t0));
      ns_scan.push_back(static_cast<double>(t3 - t2));
      if (a.size() != b.size() || a.size() != c.size()) agree = false;
      cand += static_cast<double>(a.size());
      p_rstar += static_cast<double>(rs.page_accesses);
      p_grid += static_cast<double>(gs.page_accesses);
      p_scan += static_cast<double>(ls.page_accesses);
    }
    double nq = static_cast<double>(kQueries);
    if (p_rstar >= p_scan) tree_wins = false;
    table.AddRow({Table::Num(eps, 1), Table::Num(cand / nq, 1),
                  Table::Num(p_rstar / nq, 1), Table::Num(p_grid / nq, 1),
                  Table::Num(p_scan / nq, 1), Table::Num(Median(ns_rstar), 0),
                  Table::Num(Median(ns_scan), 0)});
  }
  table.Print();

  std::printf("\nAll substrates return identical candidate sets: %s\n",
              agree ? "YES" : "NO (BUG)");
  std::printf("Shape check (R*-tree touches fewer pages than a linear scan): %s\n",
              tree_wins ? "HOLDS" : "VIOLATED");
  return (agree && tree_wins) ? 0 : 1;
}

}  // namespace
}  // namespace humdex::bench

int main(int argc, char** argv) {
  return humdex::bench::BenchMain(argc, argv, humdex::bench::Run);
}
