// Figure 6: mean tightness of lower bound T = LB / true-DTW for LB (raw
// envelope, no dimensionality reduction), New_PAA, and Keogh_PAA across the
// 24 dataset families. Protocol of §5.2: length n=256, warping width 0.1,
// dimensionality reduced 256 -> 4, 50 series per dataset, all pairs,
// mean-subtracted series.
//
// Paper's shape: LB > New_PAA > Keogh_PAA on every dataset, with New_PAA
// roughly 2x Keogh_PAA on average.
#include <cstdio>

#include "common.h"
#include "datasets.h"
#include "transform/feature_scheme.h"
#include "ts/dtw.h"
#include "ts/lower_bound.h"

namespace humdex::bench {
namespace {

int Run() {
  const std::size_t kLen = 256;
  const std::size_t kDim = 4;
  const std::size_t kPerSet = 50;
  const double kWidth = 0.1;
  const std::size_t kBand = BandRadiusForWidth(kWidth, kLen);

  PrintBanner("Figure 6: tightness of lower bound across 24 datasets",
              "n=256 -> 4 dims, warping width 0.1, 50 series per dataset");

  auto new_paa = MakeNewPaaScheme(kLen, kDim);
  auto keogh_paa = MakeKeoghPaaScheme(kLen, kDim);
  auto datasets = Figure6Datasets(kPerSet, kLen, /*seed=*/1234);

  Table table(
      {"#", "Dataset", "LB", "New_PAA", "Keogh_PAA", "New/Keogh"});
  double grand_new = 0.0, grand_keogh = 0.0;
  int violations = 0;
  int idx = 0;
  for (const NamedDataset& ds : datasets) {
    double sum_lb = 0.0, sum_new = 0.0, sum_keogh = 0.0;
    std::size_t pairs = 0;
    // Precompute envelopes and features once per series.
    std::vector<Envelope> envs;
    std::vector<Series> feats;
    std::vector<Envelope> new_envs, keogh_envs;
    for (const Series& s : ds.series) {
      Envelope e = BuildEnvelope(s, kBand);
      feats.push_back(new_paa->Features(s));  // same PAA features both schemes
      new_envs.push_back(new_paa->ReduceEnvelope(e));
      keogh_envs.push_back(keogh_paa->ReduceEnvelope(e));
      envs.push_back(std::move(e));
    }
    for (std::size_t i = 0; i < ds.series.size(); ++i) {
      for (std::size_t j = 0; j < ds.series.size(); ++j) {
        if (i == j) continue;
        double dtw = LdtwDistance(ds.series[i], ds.series[j], kBand);
        if (dtw <= 0.0) continue;
        double lb_raw = LbKeogh(ds.series[i], envs[j]);
        double lb_new = DistanceToEnvelope(feats[i], new_envs[j]);
        double lb_keogh = DistanceToEnvelope(feats[i], keogh_envs[j]);
        if (lb_new > dtw + 1e-9 || lb_keogh > lb_new + 1e-9 ||
            lb_raw > dtw + 1e-9) {
          ++violations;
        }
        sum_lb += lb_raw / dtw;
        sum_new += lb_new / dtw;
        sum_keogh += lb_keogh / dtw;
        ++pairs;
      }
    }
    double t_lb = sum_lb / static_cast<double>(pairs);
    double t_new = sum_new / static_cast<double>(pairs);
    double t_keogh = sum_keogh / static_cast<double>(pairs);
    grand_new += t_new;
    grand_keogh += t_keogh;
    table.AddRow({Table::Int(static_cast<std::size_t>(++idx)), ds.name,
                  Table::Num(t_lb), Table::Num(t_new),
                  Table::Num(t_keogh),
                  t_keogh > 0 ? Table::Num(t_new / t_keogh, 2) : "inf"});
  }
  table.Print();

  double mean_ratio = grand_new / grand_keogh;
  std::printf("\nMean New_PAA / Keogh_PAA tightness ratio over 24 datasets: %.2f\n",
              mean_ratio);
  std::printf("Lower-bound ordering violations (must be 0): %d\n", violations);
  bool shape_holds = violations == 0 && mean_ratio > 1.2;
  std::printf("Shape check (LB >= New_PAA >= Keogh_PAA everywhere, New "
              "substantially tighter): %s\n",
              shape_holds ? "HOLDS" : "VIOLATED");
  return shape_holds ? 0 : 1;
}

}  // namespace
}  // namespace humdex::bench

int main(int argc, char** argv) {
  return humdex::bench::BenchMain(argc, argv, humdex::bench::Run);
}
