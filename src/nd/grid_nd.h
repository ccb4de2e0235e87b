#ifndef DPGRID_ND_GRID_ND_H_
#define DPGRID_ND_GRID_ND_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/random.h"
#include "nd/box_nd.h"
#include "nd/dataset_nd.h"

namespace dpgrid {

/// A borrowed, allocation-free view over a d-dimensional prefix-sum
/// corner array: the one implementation of block and fractional sums
/// shared by PrefixSumNd (which views its own storage) and flattened leaf
/// indexes (which view an arena). Sharing the code is what keeps a
/// flattened answer bitwise-identical to the owning object's.
struct PrefixViewNd {
  const double* prefix = nullptr;  // padded corner array
  const size_t* sizes = nullptr;   // per-axis cell counts
  const size_t* strides = nullptr; // strides of the (n_a + 1)-shaped array
  size_t dims = 0;

  /// Sum over the integer cell block [lo_a, hi_a) per axis (clamped).
  double BlockSum(const size_t* lo, const size_t* hi) const;

  /// Fractional-volume weighted sum over continuous cell coordinates
  /// [lo_a, hi_a] per axis (cell units; clamped to the grid).
  double FractionalSum(const double* lo, const double* hi) const;
};

/// d-dimensional prefix sums with fractional orthotope queries — the
/// generalization of PrefixSum2D. A query box given in continuous cell
/// coordinates is answered in O(3^d · 2^d) independent of grid size:
/// each axis decomposes into at most three weighted segments, and each
/// segment combination is a block sum computed by inclusion-exclusion over
/// the 2^d corners of the prefix array.
class PrefixSumNd {
 public:
  /// Hard cap on dimensionality; lets every query run on fixed-size stack
  /// buffers so the hot path never heap-allocates.
  static constexpr size_t kMaxDims = 8;

  /// `values` is row-major with the last axis contiguous;
  /// values[(...(i0*n1 + i1)*n2 + ...) + i_{d-1}].
  PrefixSumNd(const std::vector<double>& values,
              const std::vector<size_t>& sizes);

  size_t dims() const { return sizes_.size(); }
  const std::vector<size_t>& sizes() const { return sizes_; }

  /// The padded corner array backing the index; what flattened leaf
  /// indexes copy.
  const std::vector<double>& corners() const { return prefix_; }

  /// Sum over the integer cell block [lo_a, hi_a) per axis (clamped).
  double BlockSum(const std::vector<size_t>& lo,
                  const std::vector<size_t>& hi) const;

  /// Allocation-free form: `lo` and `hi` point at dims() values.
  double BlockSum(const size_t* lo, const size_t* hi) const;

  /// Fractional-volume weighted sum over continuous cell coordinates
  /// [lo_a, hi_a] per axis (cell units; clamped to the grid).
  double FractionalSum(const std::vector<double>& lo,
                       const std::vector<double>& hi) const;

  /// Allocation-free form: `lo` and `hi` point at dims() values.
  double FractionalSum(const double* lo, const double* hi) const;

  /// Borrowed view over this index; must not outlive it.
  PrefixViewNd View() const {
    return PrefixViewNd{prefix_.data(), sizes_.data(), strides_.data(),
                        dims()};
  }

  /// Sum of all cells.
  double TotalSum() const;

 private:
  std::vector<size_t> sizes_;
  std::vector<size_t> strides_;  // strides of the (n_a + 1)-shaped array
  std::vector<double> prefix_;
};

/// A d-dimensional grid of per-cell values over a domain box: the
/// generalization of GridCounts. Cells are half-open; points on a domain's
/// upper faces map to the last cell of that axis.
class GridNd {
 public:
  GridNd(BoxNd domain, std::vector<size_t> sizes);

  /// Exact histogram of a dataset at the given per-axis resolution.
  static GridNd FromDataset(const DatasetNd& dataset,
                            std::vector<size_t> sizes);

  /// Adopts an existing row-major value array without the zero-fill of the
  /// normal constructor — the snapshot-restore path. `values` must hold
  /// prod(sizes) entries.
  static GridNd FromRaw(BoxNd domain, std::vector<size_t> sizes,
                        std::vector<double> values);

  size_t dims() const { return sizes_.size(); }
  const BoxNd& domain() const { return domain_; }
  const std::vector<size_t>& sizes() const { return sizes_; }
  size_t num_cells() const { return values_.size(); }

  /// Reciprocal per-axis cell extents — what the allocation-free
  /// ToCellCoords multiplies by; flattened leaf indexes copy these so
  /// their coordinate transforms stay bitwise-identical.
  const std::vector<double>& inv_cell_extents() const {
    return inv_cell_extent_;
  }

  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }

  /// Flattened index of a cell.
  size_t FlatIndex(const std::vector<size_t>& idx) const;

  /// Cell index of a point (clamped).
  std::vector<size_t> CellOf(const PointNd& p) const;

  /// Box of the cell at a (multi-)index.
  BoxNd CellBox(const std::vector<size_t>& idx) const;

  /// Box of the cell at a flattened index.
  BoxNd CellBoxFlat(size_t flat) const;

  /// Adds iid Lap(1/epsilon) noise to every cell.
  void AddLaplaceNoise(double epsilon, Rng& rng);

  /// Converts a query box to continuous cell coordinates.
  void ToCellCoords(const BoxNd& query, std::vector<double>* lo,
                    std::vector<double>* hi) const;

  /// Allocation-free form writing into caller-provided scratch of dims()
  /// doubles each; uses precomputed reciprocal cell extents (no divisions),
  /// so results may differ from the vector overload in the last ulp.
  void ToCellCoords(const BoxNd& query, double* lo, double* hi) const;

  /// Sum of all cells.
  double Total() const;

 private:
  GridNd() = default;

  BoxNd domain_;
  std::vector<size_t> sizes_;
  std::vector<size_t> strides_;
  std::vector<double> cell_extent_;
  std::vector<double> inv_cell_extent_;
  std::vector<double> values_;
};

/// The shared batch loop for any synopsis that answers from a single leaf
/// grid + prefix sums (UniformGridNd, HierarchyNd): hoists the grid/prefix
/// derefs and reuses stack scratch — no per-query allocation. Results are
/// bitwise-identical to per-query ToCellCoords + FractionalSum calls.
void AnswerBatchLeafGridNd(const GridNd& grid, const PrefixSumNd& prefix,
                           std::span<const BoxNd> queries,
                           std::span<double> out);

}  // namespace dpgrid

#endif  // DPGRID_ND_GRID_ND_H_
