#include "nd/hierarchy_nd.h"

#include <cmath>

#include "common/check.h"
#include "dp/laplace.h"
#include "hier/constrained_inference.h"

namespace dpgrid {

namespace {

int64_t IPow(int64_t base, int exp) {
  int64_t r = 1;
  for (int i = 0; i < exp; ++i) r *= base;
  return r;
}

}  // namespace

HierarchyNd::HierarchyNd(const DatasetNd& dataset, PrivacyBudget& budget,
                         Rng& rng, const HierarchyNdOptions& options)
    : options_(options) {
  Build(dataset, budget, rng);
}

HierarchyNd::HierarchyNd(const DatasetNd& dataset, double epsilon, Rng& rng,
                         const HierarchyNdOptions& options)
    : options_(options) {
  PrivacyBudget budget(epsilon);
  Build(dataset, budget, rng);
}

std::unique_ptr<HierarchyNd> HierarchyNd::Restore(HierarchyNdOptions options,
                                                  GridNd leaf) {
  DPGRID_CHECK(options.depth >= 1);
  DPGRID_CHECK(options.branching >= 2 || options.depth == 1);
  DPGRID_CHECK(options.leaf_size >= 1);
  DPGRID_CHECK(options.leaf_size % IPow(options.branching,
                                        options.depth - 1) == 0);
  for (size_t n : leaf.sizes()) {
    DPGRID_CHECK(n == static_cast<size_t>(options.leaf_size));
  }
  std::unique_ptr<HierarchyNd> h(new HierarchyNd());
  h->options_ = options;
  h->dims_ = leaf.dims();
  h->leaf_.emplace(std::move(leaf));
  h->prefix_.emplace(h->leaf_->values(), h->leaf_->sizes());
  return h;
}

int HierarchyNd::LevelSize(int level) const {
  DPGRID_CHECK(level >= 0 && level < options_.depth);
  return options_.leaf_size /
         static_cast<int>(IPow(options_.branching,
                               options_.depth - 1 - level));
}

void HierarchyNd::Build(const DatasetNd& dataset, PrivacyBudget& budget,
                        Rng& rng) {
  const int b = options_.branching;
  const int depth = options_.depth;
  const int m = options_.leaf_size;
  dims_ = dataset.dims();
  DPGRID_CHECK(depth >= 1);
  DPGRID_CHECK(b >= 2 || depth == 1);
  DPGRID_CHECK_MSG(m % IPow(b, depth - 1) == 0,
                   "leaf size must be divisible by branching^(depth-1)");

  const double eps_level = budget.SpendRemaining("hiernd/levels") / depth;
  const double var = LaplaceVariance(1.0, eps_level);

  GridNd exact_leaf = GridNd::FromDataset(
      dataset, std::vector<size_t>(dims_, static_cast<size_t>(m)));

  // Noisy grids per level, coarsest first; coarser levels aggregate leaves.
  std::vector<GridNd> noisy;
  noisy.reserve(static_cast<size_t>(depth));
  for (int l = 0; l < depth; ++l) {
    const int ml = LevelSize(l);
    GridNd level(dataset.domain(),
                 std::vector<size_t>(dims_, static_cast<size_t>(ml)));
    const size_t factor = static_cast<size_t>(m / ml);
    // Aggregate: iterate leaf cells via odometer, add into the parent cell.
    std::vector<size_t> idx(dims_, 0);
    const size_t leaf_cells = exact_leaf.num_cells();
    std::vector<size_t> coarse_idx(dims_);
    for (size_t flat = 0; flat < leaf_cells; ++flat) {
      for (size_t a = 0; a < dims_; ++a) coarse_idx[a] = idx[a] / factor;
      level.mutable_values()[level.FlatIndex(coarse_idx)] +=
          exact_leaf.values()[flat];
      for (size_t a = dims_; a-- > 0;) {
        if (++idx[a] < exact_leaf.sizes()[a]) break;
        idx[a] = 0;
      }
    }
    level.AddLaplaceNoise(eps_level, rng);
    noisy.push_back(std::move(level));
  }

  if (options_.constrained_inference && depth > 1) {
    TreeCounts tree;
    std::vector<size_t> offsets(static_cast<size_t>(depth));
    size_t total = 0;
    for (int l = 0; l < depth; ++l) {
      offsets[static_cast<size_t>(l)] = total;
      total += noisy[static_cast<size_t>(l)].num_cells();
    }
    tree.noisy.resize(total);
    tree.variance.assign(total, var);
    tree.children.resize(total);
    tree.parent.assign(total, -1);
    for (int l = 0; l < depth; ++l) {
      const GridNd& level = noisy[static_cast<size_t>(l)];
      const size_t off = offsets[static_cast<size_t>(l)];
      const size_t cells = level.num_cells();
      for (size_t flat = 0; flat < cells; ++flat) {
        tree.noisy[off + flat] = level.values()[flat];
      }
      if (l + 1 < depth) {
        // Children of cell (i_0..i_{d-1}) at the next level are all cells
        // whose per-axis index divides down to it.
        const GridNd& child = noisy[static_cast<size_t>(l) + 1];
        const size_t child_off = offsets[static_cast<size_t>(l) + 1];
        const size_t bb = static_cast<size_t>(b);
        std::vector<size_t> cidx(dims_, 0);
        const size_t child_cells = child.num_cells();
        std::vector<size_t> pidx(dims_);
        for (size_t cflat = 0; cflat < child_cells; ++cflat) {
          for (size_t a = 0; a < dims_; ++a) pidx[a] = cidx[a] / bb;
          const size_t parent = off + level.FlatIndex(pidx);
          tree.children[parent].push_back(
              static_cast<int>(child_off + cflat));
          tree.parent[child_off + cflat] = static_cast<int>(parent);
          for (size_t a = dims_; a-- > 0;) {
            if (++cidx[a] < child.sizes()[a]) break;
            cidx[a] = 0;
          }
        }
      }
    }
    std::vector<double> refined = RunConstrainedInference(tree);
    leaf_.emplace(dataset.domain(),
                  std::vector<size_t>(dims_, static_cast<size_t>(m)));
    const size_t leaf_off = offsets[static_cast<size_t>(depth - 1)];
    for (size_t i = 0; i < leaf_->num_cells(); ++i) {
      leaf_->mutable_values()[i] = refined[leaf_off + i];
    }
  } else {
    leaf_.emplace(std::move(noisy.back()));
  }
  prefix_.emplace(leaf_->values(), leaf_->sizes());
}

double HierarchyNd::Answer(const BoxNd& query) const {
  double lo[PrefixSumNd::kMaxDims];
  double hi[PrefixSumNd::kMaxDims];
  leaf_->ToCellCoords(query, lo, hi);
  return prefix_->FractionalSum(lo, hi);
}

void HierarchyNd::AnswerBatch(std::span<const BoxNd> queries,
                              std::span<double> out) const {
  AnswerBatchLeafGridNd(*leaf_, *prefix_, queries, out);
}

std::string HierarchyNd::Name() const {
  return "H" + std::to_string(dims_) + "d-" +
         std::to_string(options_.branching) + "," +
         std::to_string(options_.depth);
}

}  // namespace dpgrid
