#ifndef DPGRID_HIER_HIERARCHY_GRID_H_
#define DPGRID_HIER_HIERARCHY_GRID_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "dp/budget.h"
#include "geo/dataset.h"
#include "grid/grid_counts.h"
#include "grid/synopsis.h"
#include "index/prefix_sum2d.h"

namespace dpgrid {

/// Options for a grid hierarchy H_{b,d} (paper Fig. 3 notation).
struct HierarchyGridOptions {
  /// Leaf grid size m (per axis). Must be divisible by branching^(depth-1).
  int leaf_size = 360;

  /// Per-axis branching factor b: every cell splits into b × b children.
  int branching = 2;

  /// Number of levels d (>= 1); d == 1 degenerates to a uniform grid.
  int depth = 2;

  /// Apply constrained inference across levels (on, as in the paper's
  /// hierarchy experiments; exposed for ablations).
  bool constrained_inference = true;
};

/// A multi-level grid hierarchy over the domain: level l is an
/// (m/b^(d-1-l)) × (m/b^(d-1-l)) grid, each level receives ε/d of the
/// budget, and constrained inference makes the levels consistent
/// (paper §III "Hierarchical Transformations", evaluated in Fig. 3).
///
/// After inference, answering from the leaf level alone is equivalent to the
/// greedy decomposition over internal nodes, so queries are answered from
/// the refined leaf grid with uniformity proration.
class HierarchyGrid : public Synopsis {
 public:
  HierarchyGrid(const Dataset& dataset, PrivacyBudget& budget, Rng& rng,
                const HierarchyGridOptions& options = {});

  HierarchyGrid(const Dataset& dataset, double epsilon, Rng& rng,
                const HierarchyGridOptions& options = {});

  /// Snapshot-store restore: adopts the refined leaf grid, which must be
  /// leaf_size × leaf_size, and rebuilds its prefix index as Build does.
  static std::unique_ptr<HierarchyGrid> Restore(HierarchyGridOptions options,
                                                GridCounts leaf);

  double Answer(const Rect& query) const override;
  void AnswerBatch(std::span<const Rect> queries,
                   std::span<double> out) const override;
  std::string Name() const override;
  std::vector<SynopsisCell> ExportCells() const override;

  const HierarchyGridOptions& options() const { return options_; }

  /// Refined (post-inference) leaf grid.
  const GridCounts& leaf_counts() const { return *leaf_; }

  /// Grid size of level l (0 = coarsest).
  int LevelSize(int level) const;

 private:
  HierarchyGrid() = default;

  void Build(const Dataset& dataset, PrivacyBudget& budget, Rng& rng);

  HierarchyGridOptions options_;
  std::optional<GridCounts> leaf_;
  std::optional<PrefixSum2D> prefix_;
};

}  // namespace dpgrid

#endif  // DPGRID_HIER_HIERARCHY_GRID_H_
