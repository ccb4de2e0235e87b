#ifndef DPGRID_GRID_UNIFORM_GRID_H_
#define DPGRID_GRID_UNIFORM_GRID_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "dp/budget.h"
#include "geo/dataset.h"
#include "grid/grid_counts.h"
#include "grid/guidelines.h"
#include "grid/synopsis.h"
#include "index/prefix_sum2d.h"

namespace dpgrid {

/// Which ε-DP noise distribution to add to cell counts.
enum class NoiseMechanism {
  kLaplace,    // Lap(1/ε) — the paper's mechanism
  kGeometric,  // two-sided geometric with alpha = e^(-ε) — integer counts
};

/// Options for building a UniformGrid synopsis.
struct UniformGridOptions {
  /// Grid size m. If 0, m is chosen by Guideline 1 from (N, ε, c).
  int grid_size = 0;

  /// Constant c of Guideline 1 (used only when grid_size == 0).
  double guideline_c = kDefaultGuidelineC;

  /// Fraction of the budget spent on a noisy estimate of N for Guideline 1.
  /// 0 uses the exact N (the paper's experimental setting; the paper notes a
  /// "very small portion" suffices when strict end-to-end DP is required).
  double n_estimate_fraction = 0.0;

  /// Noise distribution for the cell counts.
  NoiseMechanism mechanism = NoiseMechanism::kLaplace;

  /// Clamp noisy cells at zero (post-processing: keeps ε-DP, biases range
  /// sums upward on sparse data; off by default as in the paper).
  bool nonnegative_cells = false;

  /// When true, distribute the m² cell budget as an mx × my grid matching
  /// the domain's aspect ratio so cells are (near-)square in domain units,
  /// instead of the paper's m × m grid of stretched cells. Off by default
  /// (paper-faithful).
  bool aspect_aware = false;
};

/// The Uniform Grid (UG) method (paper §IV-A).
///
/// Partitions the domain into an m × m equi-width grid, publishes a Laplace
/// noisy count per cell with the full budget (the cells are disjoint, so the
/// vector of counts has sensitivity 1), and answers rectangle queries by
/// summing covered cells, prorating partially covered cells by area.
class UniformGrid : public Synopsis {
 public:
  /// Builds the synopsis, consuming all of `budget`.
  UniformGrid(const Dataset& dataset, PrivacyBudget& budget, Rng& rng,
              const UniformGridOptions& options = {});

  /// Convenience constructor managing its own budget of `epsilon`.
  UniformGrid(const Dataset& dataset, double epsilon, Rng& rng,
              const UniformGridOptions& options = {});

  /// Wraps an already-noised grid (e.g. a StreamingUniformGridBuilder
  /// result or a decoded snapshot) as a queryable UG synopsis; the prefix
  /// index is built here exactly as the build path builds it. The grid
  /// must already be ε-DP — no further noise is added.
  static std::unique_ptr<UniformGrid> FromNoisyCounts(GridCounts noisy);

  double Answer(const Rect& query) const override;
  void AnswerBatch(std::span<const Rect> queries,
                   std::span<double> out) const override;
  std::string Name() const override;
  std::vector<SynopsisCell> ExportCells() const override;

  /// The grid size m that was used.
  int grid_size() const { return static_cast<int>(noisy_.nx()); }

  /// The noisy cell grid — the release, and what snapshots persist.
  const GridCounts& noisy_counts() const { return noisy_; }

 private:
  explicit UniformGrid(GridCounts noisy);

  GridCounts noisy_;
  std::optional<PrefixSum2D> prefix_;
};

}  // namespace dpgrid

#endif  // DPGRID_GRID_UNIFORM_GRID_H_
