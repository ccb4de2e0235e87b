#include "hier/hierarchy_grid.h"

#include <cmath>

#include "common/check.h"
#include "dp/laplace.h"
#include "hier/constrained_inference.h"
#include "index/frac_kernel.h"

namespace dpgrid {

namespace {

// Integer power; small arguments only.
int64_t IPow(int base, int exp) {
  int64_t r = 1;
  for (int i = 0; i < exp; ++i) r *= base;
  return r;
}

}  // namespace

HierarchyGrid::HierarchyGrid(const Dataset& dataset, PrivacyBudget& budget,
                             Rng& rng, const HierarchyGridOptions& options)
    : options_(options) {
  Build(dataset, budget, rng);
}

HierarchyGrid::HierarchyGrid(const Dataset& dataset, double epsilon, Rng& rng,
                             const HierarchyGridOptions& options)
    : options_(options) {
  PrivacyBudget budget(epsilon);
  Build(dataset, budget, rng);
}

std::unique_ptr<HierarchyGrid> HierarchyGrid::Restore(
    HierarchyGridOptions options, GridCounts leaf) {
  DPGRID_CHECK(options.depth >= 1);
  DPGRID_CHECK(options.branching >= 2 || options.depth == 1);
  DPGRID_CHECK(options.leaf_size >= 1);
  DPGRID_CHECK(options.leaf_size % IPow(options.branching,
                                        options.depth - 1) == 0);
  const auto m = static_cast<size_t>(options.leaf_size);
  DPGRID_CHECK(leaf.nx() == m && leaf.ny() == m);
  std::unique_ptr<HierarchyGrid> h(new HierarchyGrid());
  h->options_ = options;
  h->leaf_.emplace(std::move(leaf));
  h->prefix_.emplace(h->leaf_->values(), h->leaf_->nx(), h->leaf_->ny());
  return h;
}

int HierarchyGrid::LevelSize(int level) const {
  DPGRID_CHECK(level >= 0 && level < options_.depth);
  return options_.leaf_size /
         static_cast<int>(IPow(options_.branching,
                               options_.depth - 1 - level));
}

void HierarchyGrid::Build(const Dataset& dataset, PrivacyBudget& budget,
                          Rng& rng) {
  const int b = options_.branching;
  const int d = options_.depth;
  const int m = options_.leaf_size;
  DPGRID_CHECK(b >= 2 || d == 1);
  DPGRID_CHECK(d >= 1);
  DPGRID_CHECK(m >= 1);
  DPGRID_CHECK_MSG(m % IPow(b, d - 1) == 0,
                   "leaf size must be divisible by branching^(depth-1)");

  const double eps_level = budget.SpendRemaining("hier/levels") / d;

  // Exact leaf histogram once; coarser levels by aggregation.
  GridCounts exact_leaf =
      GridCounts::FromDataset(dataset, static_cast<size_t>(m),
                              static_cast<size_t>(m));

  // Per-level noisy grids, coarsest first.
  std::vector<GridCounts> noisy;
  noisy.reserve(static_cast<size_t>(d));
  for (int l = 0; l < d; ++l) {
    const int ml = LevelSize(l);
    GridCounts level(dataset.domain(), static_cast<size_t>(ml),
                     static_cast<size_t>(ml));
    const int factor = m / ml;
    for (int iy = 0; iy < m; ++iy) {
      for (int ix = 0; ix < m; ++ix) {
        level.add(static_cast<size_t>(ix / factor),
                  static_cast<size_t>(iy / factor),
                  exact_leaf.at(static_cast<size_t>(ix),
                                static_cast<size_t>(iy)));
      }
    }
    level.AddLaplaceNoise(eps_level, rng);
    noisy.push_back(std::move(level));
  }

  if (options_.constrained_inference && d > 1) {
    // Assemble the forest in level order (parents before children).
    TreeCounts tree;
    std::vector<size_t> level_offset(static_cast<size_t>(d), 0);
    size_t total = 0;
    for (int l = 0; l < d; ++l) {
      level_offset[static_cast<size_t>(l)] = total;
      const auto ml = static_cast<size_t>(LevelSize(l));
      total += ml * ml;
    }
    tree.noisy.resize(total);
    tree.variance.assign(total, LaplaceVariance(1.0, eps_level));
    tree.children.resize(total);
    tree.parent.assign(total, -1);
    for (int l = 0; l < d; ++l) {
      const auto ml = static_cast<size_t>(LevelSize(l));
      const size_t off = level_offset[static_cast<size_t>(l)];
      for (size_t iy = 0; iy < ml; ++iy) {
        for (size_t ix = 0; ix < ml; ++ix) {
          size_t id = off + iy * ml + ix;
          tree.noisy[id] = noisy[static_cast<size_t>(l)].at(ix, iy);
          if (l + 1 < d) {
            const auto mc = static_cast<size_t>(LevelSize(l + 1));
            const size_t child_off = level_offset[static_cast<size_t>(l) + 1];
            const auto bb = static_cast<size_t>(b);
            for (size_t cy = iy * bb; cy < (iy + 1) * bb; ++cy) {
              for (size_t cx = ix * bb; cx < (ix + 1) * bb; ++cx) {
                size_t cid = child_off + cy * mc + cx;
                tree.children[id].push_back(static_cast<int>(cid));
                tree.parent[cid] = static_cast<int>(id);
              }
            }
          }
        }
      }
    }
    std::vector<double> refined = RunConstrainedInference(tree);
    // Extract the refined leaf level.
    const size_t leaf_off = level_offset[static_cast<size_t>(d - 1)];
    leaf_.emplace(dataset.domain(), static_cast<size_t>(m),
                  static_cast<size_t>(m));
    for (size_t i = 0; i < static_cast<size_t>(m) * m; ++i) {
      leaf_->mutable_values()[i] = refined[leaf_off + i];
    }
  } else {
    leaf_.emplace(std::move(noisy.back()));
  }
  prefix_.emplace(leaf_->values(), leaf_->nx(), leaf_->ny());
}

double HierarchyGrid::Answer(const Rect& query) const {
  return FracView2D::Make(*leaf_, *prefix_).Answer(query);
}

void HierarchyGrid::AnswerBatch(std::span<const Rect> queries,
                                std::span<double> out) const {
  DPGRID_CHECK(queries.size() == out.size());
  const FracView2D view = FracView2D::Make(*leaf_, *prefix_);
  view.AnswerBatch(queries.data(), out.data(), queries.size());
}

std::string HierarchyGrid::Name() const {
  return "H" + std::to_string(options_.branching) + "," +
         std::to_string(options_.depth);
}

std::vector<SynopsisCell> HierarchyGrid::ExportCells() const {
  std::vector<SynopsisCell> cells;
  cells.reserve(leaf_->values().size());
  for (size_t iy = 0; iy < leaf_->ny(); ++iy) {
    for (size_t ix = 0; ix < leaf_->nx(); ++ix) {
      cells.push_back(SynopsisCell{leaf_->CellRect(ix, iy), leaf_->at(ix, iy)});
    }
  }
  return cells;
}

}  // namespace dpgrid
