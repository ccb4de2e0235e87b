#ifndef DPGRID_ND_HIERARCHY_ND_H_
#define DPGRID_ND_HIERARCHY_ND_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "dp/budget.h"
#include "nd/grid_nd.h"
#include "nd/synopsis_nd.h"

namespace dpgrid {

/// Options for a d-dimensional grid hierarchy.
struct HierarchyNdOptions {
  /// Leaf per-axis grid size; must be divisible by branching^(depth-1).
  int leaf_size = 64;
  /// Per-axis branching factor (each cell splits into branching^d children).
  int branching = 2;
  /// Number of levels; 1 = flat grid.
  int depth = 2;
  /// Apply constrained inference across levels.
  bool constrained_inference = true;
};

/// A multi-level d-dimensional grid hierarchy with constrained inference —
/// used by the dimensionality ablation to demonstrate the paper's §IV-C
/// prediction: the benefit of hierarchies over flat grids shrinks as d
/// grows (each of the query's 2d border hyperplanes must be answered by
/// leaves, and the border is a growing fraction of the query).
class HierarchyNd : public SynopsisNd {
 public:
  HierarchyNd(const DatasetNd& dataset, PrivacyBudget& budget, Rng& rng,
              const HierarchyNdOptions& options = {});

  HierarchyNd(const DatasetNd& dataset, double epsilon, Rng& rng,
              const HierarchyNdOptions& options = {});

  /// Snapshot-store restore: adopts the refined leaf grid and rebuilds
  /// its prefix index as Build does.
  static std::unique_ptr<HierarchyNd> Restore(HierarchyNdOptions options,
                                              GridNd leaf);

  double Answer(const BoxNd& query) const override;
  void AnswerBatch(std::span<const BoxNd> queries,
                   std::span<double> out) const override;
  std::string Name() const override;

  size_t dims() const override { return dims_; }

  /// Per-axis grid size of level l (0 = coarsest).
  int LevelSize(int level) const;

  /// Post-inference leaf grid.
  const GridNd& leaf_counts() const { return *leaf_; }

  const HierarchyNdOptions& options() const { return options_; }

 private:
  HierarchyNd() = default;

  void Build(const DatasetNd& dataset, PrivacyBudget& budget, Rng& rng);

  HierarchyNdOptions options_;
  size_t dims_ = 0;
  std::optional<GridNd> leaf_;
  std::optional<PrefixSumNd> prefix_;
};

}  // namespace dpgrid

#endif  // DPGRID_ND_HIERARCHY_ND_H_
