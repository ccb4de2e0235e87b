#include "grid/uniform_grid.h"

#include <cmath>

#include "common/check.h"
#include "dp/laplace.h"
#include "index/frac_kernel.h"

namespace dpgrid {

namespace {

GridCounts BuildNoisyGrid(const Dataset& dataset, PrivacyBudget& budget,
                          Rng& rng, const UniformGridOptions& options) {
  int m = options.grid_size;
  if (m <= 0) {
    double n = static_cast<double>(dataset.size());
    double guideline_epsilon = budget.total();
    if (options.n_estimate_fraction > 0.0) {
      double eps_n = budget.SpendFraction(options.n_estimate_fraction,
                                          "ug/noisy-n-estimate");
      n = LaplaceMechanism(n, /*sensitivity=*/1.0, eps_n, rng);
      if (n < 1.0) n = 1.0;
      guideline_epsilon = budget.remaining();
    }
    m = ChooseUniformGridSize(n, guideline_epsilon, options.guideline_c);
  }
  DPGRID_CHECK(m >= 1);
  size_t nx = static_cast<size_t>(m);
  size_t ny = static_cast<size_t>(m);
  if (options.aspect_aware) {
    // Keep nx * ny ~ m^2 while matching the domain's aspect ratio so cells
    // come out square in domain units.
    const double aspect = dataset.domain().Width() /
                          dataset.domain().Height();
    nx = static_cast<size_t>(
        std::max(1L, std::lround(m * std::sqrt(aspect))));
    ny = static_cast<size_t>(std::max(
        1L, std::lround(static_cast<double>(m) * m / static_cast<double>(nx))));
  }
  GridCounts grid = GridCounts::FromDataset(dataset, nx, ny);
  double eps = budget.SpendRemaining("ug/cell-counts");
  switch (options.mechanism) {
    case NoiseMechanism::kLaplace:
      grid.AddLaplaceNoise(eps, rng);
      break;
    case NoiseMechanism::kGeometric:
      grid.AddGeometricNoise(eps, rng);
      break;
  }
  if (options.nonnegative_cells) grid.ClampNonNegative();
  return grid;
}

}  // namespace

UniformGrid::UniformGrid(const Dataset& dataset, PrivacyBudget& budget,
                         Rng& rng, const UniformGridOptions& options)
    : noisy_(BuildNoisyGrid(dataset, budget, rng, options)) {
  prefix_.emplace(noisy_.values(), noisy_.nx(), noisy_.ny());
}

UniformGrid::UniformGrid(const Dataset& dataset, double epsilon, Rng& rng,
                         const UniformGridOptions& options)
    : noisy_(Rect{0, 0, 1, 1}, 1, 1) {
  PrivacyBudget budget(epsilon);
  noisy_ = BuildNoisyGrid(dataset, budget, rng, options);
  prefix_.emplace(noisy_.values(), noisy_.nx(), noisy_.ny());
}

UniformGrid::UniformGrid(GridCounts noisy) : noisy_(std::move(noisy)) {
  prefix_.emplace(noisy_.values(), noisy_.nx(), noisy_.ny());
}

std::unique_ptr<UniformGrid> UniformGrid::FromNoisyCounts(GridCounts noisy) {
  return std::unique_ptr<UniformGrid>(new UniformGrid(std::move(noisy)));
}

double UniformGrid::Answer(const Rect& query) const {
  return FracView2D::Make(noisy_, *prefix_).Answer(query);
}

void UniformGrid::AnswerBatch(std::span<const Rect> queries,
                              std::span<double> out) const {
  DPGRID_CHECK(queries.size() == out.size());
  const FracView2D view = FracView2D::Make(noisy_, *prefix_);
  view.AnswerBatch(queries.data(), out.data(), queries.size());
}

std::string UniformGrid::Name() const {
  return "U" + std::to_string(grid_size());
}

std::vector<SynopsisCell> UniformGrid::ExportCells() const {
  std::vector<SynopsisCell> cells;
  cells.reserve(noisy_.nx() * noisy_.ny());
  for (size_t iy = 0; iy < noisy_.ny(); ++iy) {
    for (size_t ix = 0; ix < noisy_.nx(); ++ix) {
      cells.push_back(SynopsisCell{noisy_.CellRect(ix, iy), noisy_.at(ix, iy)});
    }
  }
  return cells;
}

}  // namespace dpgrid
