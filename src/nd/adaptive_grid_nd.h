#ifndef DPGRID_ND_ADAPTIVE_GRID_ND_H_
#define DPGRID_ND_ADAPTIVE_GRID_ND_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "dp/budget.h"
#include "nd/grid_nd.h"
#include "nd/guidelines_nd.h"
#include "nd/leaf_index_nd.h"
#include "nd/synopsis_nd.h"

namespace dpgrid {

/// Options for AdaptiveGridNd.
struct AdaptiveGridNdOptions {
  /// Level-1 per-axis size m1. 0 = generalized suggestion.
  int level1_size = 0;
  /// Budget fraction for level-1 counts.
  double alpha = 0.5;
  /// Guideline-2 constant c2.
  double c2 = 5.0;
  /// Guideline-1 constant c (used when level1_size == 0).
  double guideline_c = 10.0;
  /// Cap on per-cell leaf size (memory guard; the cap binds only in
  /// huge-epsilon corner cases).
  int max_level2_size = 64;
  /// Apply 2-level constrained inference.
  bool constrained_inference = true;
};

/// The Adaptive Grid method in d dimensions: a coarse m1^d level-1 grid
/// (budget α·ε) whose cells are refined into m2^d leaf grids by their noisy
/// density (budget (1−α)·ε), followed by 2-level constrained inference —
/// the direct generalization of the paper's AG (§IV-B).
class AdaptiveGridNd : public SynopsisNd {
 public:
  /// One leaf grid per level-1 cell, with its prefix-sum index.
  struct LeafBlock {
    std::optional<GridNd> counts;
    std::optional<PrefixSumNd> prefix;
  };

  AdaptiveGridNd(const DatasetNd& dataset, PrivacyBudget& budget, Rng& rng,
                 const AdaptiveGridNdOptions& options = {});

  AdaptiveGridNd(const DatasetNd& dataset, double epsilon, Rng& rng,
                 const AdaptiveGridNdOptions& options = {});

  /// Snapshot-store restore: adopts the post-inference counts (level 1
  /// and one leaf grid per level-1 cell, m1^d of them in row-major order)
  /// and rebuilds every index from them as Build does.
  static std::unique_ptr<AdaptiveGridNd> Restore(
      AdaptiveGridNdOptions options, int m1, GridNd level1,
      std::vector<GridNd> leaves);

  double Answer(const BoxNd& query) const override;
  void AnswerBatch(std::span<const BoxNd> queries,
                   std::span<double> out) const override;
  std::string Name() const override;

  size_t dims() const override { return level1_->dims(); }

  int level1_size() const { return m1_; }

  /// Post-inference level-1 count at a flattened level-1 index.
  double Level1Count(size_t flat) const { return level1_->values()[flat]; }

  /// Leaf per-axis size of a level-1 cell (flattened index).
  int Level2Size(size_t flat) const;

  /// Total leaf cells across the synopsis.
  int64_t TotalLeafCells() const;

  const AdaptiveGridNdOptions& options() const { return options_; }

  /// Post-inference level-1 grid and the leaf blocks (row-major per
  /// level-1 cell); their counts are the state persisted by snapshots.
  const GridNd& level1_counts() const { return *level1_; }
  const std::vector<LeafBlock>& leaves() const { return leaves_; }

  /// The flattened leaf index behind AnswerBatch — derived state, rebuilt
  /// by Build and Restore alike, never persisted.
  const FlatLeafIndexNd& flat_index() const { return flat_; }

 private:
  AdaptiveGridNd() = default;

  void Build(const DatasetNd& dataset, PrivacyBudget& budget, Rng& rng);

  /// Derives the level-1 and leaf prefix indexes and flat_ from the
  /// counts (call once the counts are final).
  void BuildIndexes();

  /// The one query implementation both Answer and AnswerBatch funnel
  /// through; runs entirely on stack scratch (no per-query allocation).
  double AnswerOne(const BoxNd& query) const;

  /// AnswerOne against the flattened leaf index — the same decomposition
  /// and FractionalSum code, minus the per-cell heap chases. Bitwise
  /// identical to AnswerOne; AnswerBatch's per-query body.
  double AnswerOneFlat(const BoxNd& query) const;

  AdaptiveGridNdOptions options_;
  int m1_ = 0;
  std::optional<GridNd> level1_;       // post-inference v'
  std::optional<PrefixSumNd> level1_prefix_;
  std::vector<LeafBlock> leaves_;      // one per level-1 cell (flattened)
  FlatLeafIndexNd flat_;               // contiguous mirror of the leaves
};

}  // namespace dpgrid

#endif  // DPGRID_ND_ADAPTIVE_GRID_ND_H_
