// Ablation (beyond the paper's figures, called out in DESIGN.md §5): how the
// reduced dimensionality N trades lower-bound tightness against index width.
// The paper fixes N=4 (tightness experiments) and N=8 (scalability); this
// sweep shows the whole curve for every scheme. A second sweep prices the
// trade on the R*-tree: per-query probe and LB_Keogh times of range queries
// over a shard-sized phrase corpus at N = 8, 12, 16, 24.
#include <cstdio>

#include "common.h"
#include "gemini/query_engine.h"
#include "transform/feature_scheme.h"
#include "transform/poly.h"
#include "ts/dtw.h"
#include "ts/lower_bound.h"
#include "util/random.h"
#include "util/stats.h"

namespace humdex::bench {
namespace {

// Range queries over one shard's worth of phrases, on New_PAA at each N:
// index candidates and pages per query, and the median per-query
// gemini.index_ns (envelope + probe) and gemini.lb_ns (LB_Keogh). New_PAA
// needs N to divide the normal-form length, so this sweep runs at n = 96,
// which 8, 12, 16 and 24 all divide. Returns whether every N gave the same
// answers (each is exact, so they must).
bool StageSweep() {
  const std::size_t kLen = 96;
  const std::size_t kCorpus = 5000;
  const std::size_t kQueries = 200;
  const int kReps = 3;
  QueryEngineOptions eopts;
  eopts.normal_len = kLen;
  const std::size_t band = BandRadiusForWidth(eopts.warping_width, kLen);

  auto normals = CorpusNormalForms(PhraseCorpus(kCorpus, /*seed=*/4242), kLen);
  auto queries = CorpusNormalForms(PhraseCorpus(kQueries, /*seed=*/4343), kLen);
  // Epsilon: the 1st percentile of sampled query-to-corpus distances.
  Rng rng(17);
  std::vector<double> dists;
  for (int s = 0; s < 2000; ++s) {
    dists.push_back(LdtwDistance(queries[rng.NextBounded(kQueries)],
                                 normals[rng.NextBounded(kCorpus)], band));
  }
  const double epsilon = Percentile(dists, 1.0);

  std::printf("\nStage times vs N: %zu phrases, n=%zu, %zu range queries "
              "(eps %.3f), median of %d reps per query\n",
              kCorpus, kLen, kQueries, epsilon, kReps);
  Table table({"N", "candidates", "pages", "index_ns", "lb_ns",
               "index+lb ns"});
  std::vector<std::vector<Neighbor>> reference;
  bool same = true;
  for (std::size_t dim : {8u, 12u, 16u, 24u}) {
    DtwQueryEngine engine(MakeNewPaaScheme(kLen, dim), eopts);
    engine.AddAll(normals);
    double cand = 0.0, pages = 0.0;
    std::vector<double> index_ns, lb_ns;
    for (std::size_t q = 0; q < kQueries; ++q) {
      std::vector<double> idx, lb;
      for (int rep = 0; rep < kReps; ++rep) {
        QueryStats st;
        auto answer = engine.RangeQuery(queries[q], epsilon, &st);
        idx.push_back(static_cast<double>(st.index_ns));
        lb.push_back(static_cast<double>(st.lb_ns));
        if (rep > 0) continue;
        cand += static_cast<double>(st.index_candidates);
        pages += static_cast<double>(st.page_accesses);
        if (reference.size() < kQueries) {
          reference.push_back(std::move(answer));
        } else if (!(answer.size() == reference[q].size() &&
                     std::equal(answer.begin(), answer.end(),
                                reference[q].begin(),
                                [](const Neighbor& a, const Neighbor& b) {
                                  return a.id == b.id &&
                                         a.distance == b.distance;
                                }))) {
          same = false;
        }
      }
      index_ns.push_back(Median(idx));
      lb_ns.push_back(Median(lb));
    }
    const double nq = static_cast<double>(kQueries);
    const double i_ns = Median(index_ns), l_ns = Median(lb_ns);
    table.AddRow({Table::Int(dim), Table::Num(cand / nq, 1),
                  Table::Num(pages / nq, 1), Table::Num(i_ns, 0),
                  Table::Num(l_ns, 0), Table::Num(i_ns + l_ns, 0)});
  }
  table.Print();
  std::printf("Every N returns identical answers: %s\n",
              same ? "YES" : "NO (BUG)");
  return same;
}

int Run() {
  const std::size_t kLen = 128;
  const std::size_t kSeriesCount = 80;
  const std::size_t kPairs = 400;
  const double kWidth = 0.1;
  const std::size_t kBand = BandRadiusForWidth(kWidth, kLen);

  PrintBanner("Ablation: tightness vs reduced dimensionality N",
              "random walk, n=128, warping width 0.1, all schemes");

  auto series = RandomWalkSet(kSeriesCount, kLen, /*seed=*/20212);

  Table table({"N", "New_PAA", "Keogh_PAA", "DFT", "DWT", "SVD", "Poly",
               "LB(raw)"});
  double prev_new = 0.0;
  bool monotone = true;
  for (std::size_t dim : {2u, 4u, 8u, 16u, 32u, 64u}) {
    auto new_paa = MakeNewPaaScheme(kLen, dim);
    auto keogh = MakeKeoghPaaScheme(kLen, dim);
    auto dft = MakeDftScheme(kLen, dim);
    auto dwt = MakeDwtScheme(kLen, dim);
    auto svd = MakeSvdScheme(series, dim);
    auto poly = MakePolyScheme(kLen, dim);

    Rng rng(555 + dim);
    double s_new = 0.0, s_keogh = 0.0, s_dft = 0.0, s_dwt = 0.0, s_svd = 0.0,
           s_poly = 0.0, s_raw = 0.0;
    std::size_t used = 0;
    for (std::size_t p = 0; p < kPairs; ++p) {
      std::size_t i = rng.NextBounded(kSeriesCount);
      std::size_t j = rng.NextBounded(kSeriesCount);
      if (i == j) continue;
      double dtw = LdtwDistance(series[i], series[j], kBand);
      if (dtw <= 0.0) continue;
      Envelope env = BuildEnvelope(series[j], kBand);
      auto t = [&](const std::shared_ptr<FeatureScheme>& s) {
        return DistanceToEnvelope(s->Features(series[i]), s->ReduceEnvelope(env)) /
               dtw;
      };
      s_new += t(new_paa);
      s_keogh += t(keogh);
      s_dft += t(dft);
      s_dwt += t(dwt);
      s_svd += t(svd);
      s_poly += t(poly);
      s_raw += LbKeogh(series[i], env) / dtw;
      ++used;
    }
    double n = static_cast<double>(used);
    table.AddRow({Table::Int(dim), Table::Num(s_new / n), Table::Num(s_keogh / n),
                  Table::Num(s_dft / n), Table::Num(s_dwt / n),
                  Table::Num(s_svd / n), Table::Num(s_poly / n),
                  Table::Num(s_raw / n)});
    if (s_new / n + 1e-9 < prev_new) monotone = false;
    prev_new = s_new / n;
  }
  table.Print();

  std::printf("\nShape check (New_PAA tightness grows with N): %s\n",
              monotone ? "HOLDS" : "VIOLATED");
  const bool same_answers = StageSweep();
  return monotone && same_answers ? 0 : 1;
}

}  // namespace
}  // namespace humdex::bench

int main(int argc, char** argv) {
  return humdex::bench::BenchMain(argc, argv, humdex::bench::Run);
}
