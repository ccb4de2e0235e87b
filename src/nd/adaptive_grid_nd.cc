#include "nd/adaptive_grid_nd.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "dp/laplace.h"

namespace dpgrid {

AdaptiveGridNd::AdaptiveGridNd(const DatasetNd& dataset,
                               PrivacyBudget& budget, Rng& rng,
                               const AdaptiveGridNdOptions& options)
    : options_(options) {
  Build(dataset, budget, rng);
}

AdaptiveGridNd::AdaptiveGridNd(const DatasetNd& dataset, double epsilon,
                               Rng& rng, const AdaptiveGridNdOptions& options)
    : options_(options) {
  PrivacyBudget budget(epsilon);
  Build(dataset, budget, rng);
}

std::unique_ptr<AdaptiveGridNd> AdaptiveGridNd::Restore(
    AdaptiveGridNdOptions options, int m1, GridNd level1,
    std::vector<GridNd> leaves) {
  DPGRID_CHECK(m1 >= 1);
  const size_t d = level1.dims();
  size_t l1_cells = 1;
  for (size_t a = 0; a < d; ++a) {
    DPGRID_CHECK(level1.sizes()[a] == static_cast<size_t>(m1));
    l1_cells *= static_cast<size_t>(m1);
  }
  DPGRID_CHECK(leaves.size() == l1_cells);
  std::unique_ptr<AdaptiveGridNd> ag(new AdaptiveGridNd());
  ag->options_ = options;
  ag->m1_ = m1;
  ag->level1_.emplace(std::move(level1));
  ag->leaves_.resize(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    DPGRID_CHECK(leaves[i].dims() == d);
    ag->leaves_[i].counts.emplace(std::move(leaves[i]));
  }
  ag->BuildIndexes();
  return ag;
}

void AdaptiveGridNd::BuildIndexes() {
  level1_prefix_.emplace(level1_->values(), level1_->sizes());
  size_t corners = 0;
  for (LeafBlock& block : leaves_) {
    block.prefix.emplace(block.counts->values(), block.counts->sizes());
    corners += block.prefix->corners().size();
  }
  flat_ = FlatLeafIndexNd();
  flat_.Reserve(leaves_.size(), corners, level1_->dims());
  for (const LeafBlock& block : leaves_) {
    flat_.Add(*block.counts, *block.prefix);
  }
}

void AdaptiveGridNd::Build(const DatasetNd& dataset, PrivacyBudget& budget,
                           Rng& rng) {
  DPGRID_CHECK(options_.alpha > 0.0 && options_.alpha < 1.0);
  const size_t d = dataset.dims();

  m1_ = options_.level1_size;
  if (m1_ <= 0) {
    m1_ = ChooseAdaptiveLevel1SizeNd(static_cast<double>(dataset.size()),
                                     budget.total(), d, options_.guideline_c);
  }
  DPGRID_CHECK(m1_ >= 1);
  const std::vector<size_t> l1_sizes(d, static_cast<size_t>(m1_));

  const double eps1 =
      budget.Spend(options_.alpha * budget.remaining(), "agnd/level1-counts");
  const double eps2 = budget.SpendRemaining("agnd/level2-counts");

  GridNd level1_noisy = GridNd::FromDataset(dataset, l1_sizes);
  level1_noisy.AddLaplaceNoise(eps1, rng);

  // Leaf sizes per level-1 cell from the generalized Guideline 2.
  const size_t l1_cells = level1_noisy.num_cells();
  std::vector<int> m2(l1_cells, 1);
  for (size_t i = 0; i < l1_cells; ++i) {
    int size = ChooseAdaptiveLevel2SizeNd(level1_noisy.values()[i], eps2, d,
                                          options_.c2);
    m2[i] = std::min(size, std::max(1, options_.max_level2_size));
  }

  // Second pass: exact leaf histograms.
  GridNd domain_grid(dataset.domain(), l1_sizes);  // geometry only
  leaves_.clear();
  leaves_.resize(l1_cells);
  for (size_t i = 0; i < l1_cells; ++i) {
    leaves_[i].counts.emplace(domain_grid.CellBoxFlat(i),
                              std::vector<size_t>(d,
                                                  static_cast<size_t>(m2[i])));
  }
  for (const PointNd& p : dataset.points()) {
    const size_t l1 = domain_grid.FlatIndex(domain_grid.CellOf(p));
    GridNd& leaf = *leaves_[l1].counts;
    leaf.mutable_values()[leaf.FlatIndex(leaf.CellOf(p))] += 1.0;
  }
  for (LeafBlock& block : leaves_) block.counts->AddLaplaceNoise(eps2, rng);

  // 2-level constrained inference, exactly as in 2-D.
  level1_.emplace(dataset.domain(), l1_sizes);
  for (size_t i = 0; i < l1_cells; ++i) {
    LeafBlock& block = leaves_[i];
    const double v = level1_noisy.values()[i];
    const double leaf_cells =
        static_cast<double>(block.counts->num_cells());
    const double leaf_sum = block.counts->Total();
    double v_final = v;
    if (options_.constrained_inference) {
      const double var_v = LaplaceVariance(1.0, eps1);
      const double var_sum = leaf_cells * LaplaceVariance(1.0, eps2);
      const double w_v = (1.0 / var_v) / (1.0 / var_v + 1.0 / var_sum);
      v_final = w_v * v + (1.0 - w_v) * leaf_sum;
      const double residual = (v_final - leaf_sum) / leaf_cells;
      for (double& u : block.counts->mutable_values()) u += residual;
    }
    level1_->mutable_values()[i] = v_final;
  }
  BuildIndexes();
}

double AdaptiveGridNd::AnswerOne(const BoxNd& query) const {
  const size_t d = level1_->dims();
  double lo[PrefixSumNd::kMaxDims];
  double hi[PrefixSumNd::kMaxDims];
  level1_->ToCellCoords(query, lo, hi);
  const double m1 = static_cast<double>(m1_);
  int64_t b_lo[PrefixSumNd::kMaxDims];
  int64_t b_hi[PrefixSumNd::kMaxDims];
  size_t full_lo[PrefixSumNd::kMaxDims];
  size_t full_hi[PrefixSumNd::kMaxDims];
  bool has_interior = true;
  for (size_t a = 0; a < d; ++a) {
    lo[a] = std::clamp(lo[a], 0.0, m1);
    hi[a] = std::clamp(hi[a], 0.0, m1);
    if (hi[a] <= lo[a]) return 0.0;
    b_lo[a] = std::clamp<int64_t>(static_cast<int64_t>(std::floor(lo[a])), 0,
                                  m1_ - 1);
    b_hi[a] = std::clamp<int64_t>(
        static_cast<int64_t>(std::ceil(hi[a])) - 1, 0, m1_ - 1);
    int64_t f_lo = (lo[a] <= static_cast<double>(b_lo[a])) ? b_lo[a]
                                                           : b_lo[a] + 1;
    int64_t f_hi = (hi[a] >= static_cast<double>(b_hi[a] + 1)) ? b_hi[a] + 1
                                                               : b_hi[a];
    full_lo[a] = static_cast<size_t>(f_lo);
    full_hi[a] = static_cast<size_t>(std::max<int64_t>(f_lo, f_hi));
    if (full_hi[a] <= full_lo[a]) has_interior = false;
  }

  double total = 0.0;
  if (has_interior) total += level1_prefix_->BlockSum(full_lo, full_hi);

  // Border level-1 cells (odometer over the overlapped range, skipping the
  // interior block), answered from their leaf grids.
  int64_t idx[PrefixSumNd::kMaxDims];
  for (size_t a = 0; a < d; ++a) idx[a] = b_lo[a];
  double leaf_lo[PrefixSumNd::kMaxDims];
  double leaf_hi[PrefixSumNd::kMaxDims];
  while (true) {
    bool interior = has_interior;
    if (interior) {
      for (size_t a = 0; a < d; ++a) {
        if (idx[a] < static_cast<int64_t>(full_lo[a]) ||
            idx[a] >= static_cast<int64_t>(full_hi[a])) {
          interior = false;
          break;
        }
      }
    }
    if (!interior) {
      size_t flat = 0;
      for (size_t a = 0; a < d; ++a) {
        flat = flat * static_cast<size_t>(m1_) + static_cast<size_t>(idx[a]);
      }
      const LeafBlock& block = leaves_[flat];
      block.counts->ToCellCoords(query, leaf_lo, leaf_hi);
      total += block.prefix->FractionalSum(leaf_lo, leaf_hi);
    }
    bool rolled_over = true;
    for (size_t a = d; a-- > 0;) {
      if (++idx[a] <= b_hi[a]) {
        rolled_over = false;
        break;
      }
      idx[a] = b_lo[a];
    }
    if (rolled_over) break;
  }
  return total;
}

double AdaptiveGridNd::AnswerOneFlat(const BoxNd& query) const {
  const size_t d = level1_->dims();
  double lo[PrefixSumNd::kMaxDims];
  double hi[PrefixSumNd::kMaxDims];
  level1_->ToCellCoords(query, lo, hi);
  const double m1 = static_cast<double>(m1_);
  int64_t b_lo[PrefixSumNd::kMaxDims];
  int64_t b_hi[PrefixSumNd::kMaxDims];
  size_t full_lo[PrefixSumNd::kMaxDims];
  size_t full_hi[PrefixSumNd::kMaxDims];
  bool has_interior = true;
  for (size_t a = 0; a < d; ++a) {
    lo[a] = std::clamp(lo[a], 0.0, m1);
    hi[a] = std::clamp(hi[a], 0.0, m1);
    if (hi[a] <= lo[a]) return 0.0;
    b_lo[a] = std::clamp<int64_t>(static_cast<int64_t>(std::floor(lo[a])), 0,
                                  m1_ - 1);
    b_hi[a] = std::clamp<int64_t>(
        static_cast<int64_t>(std::ceil(hi[a])) - 1, 0, m1_ - 1);
    int64_t f_lo = (lo[a] <= static_cast<double>(b_lo[a])) ? b_lo[a]
                                                           : b_lo[a] + 1;
    int64_t f_hi = (hi[a] >= static_cast<double>(b_hi[a] + 1)) ? b_hi[a] + 1
                                                               : b_hi[a];
    full_lo[a] = static_cast<size_t>(f_lo);
    full_hi[a] = static_cast<size_t>(std::max<int64_t>(f_lo, f_hi));
    if (full_hi[a] <= full_lo[a]) has_interior = false;
  }

  double total = 0.0;
  if (has_interior) total += level1_prefix_->BlockSum(full_lo, full_hi);

  // Border cells, in the same odometer order as AnswerOne, answered from
  // the flattened leaf index: one SoA geometry row + the shared
  // PrefixViewNd::FractionalSum instead of three heap objects per cell.
  int64_t idx[PrefixSumNd::kMaxDims];
  for (size_t a = 0; a < d; ++a) idx[a] = b_lo[a];
  double leaf_lo[PrefixSumNd::kMaxDims];
  double leaf_hi[PrefixSumNd::kMaxDims];
  while (true) {
    bool interior = has_interior;
    if (interior) {
      for (size_t a = 0; a < d; ++a) {
        if (idx[a] < static_cast<int64_t>(full_lo[a]) ||
            idx[a] >= static_cast<int64_t>(full_hi[a])) {
          interior = false;
          break;
        }
      }
    }
    if (!interior) {
      size_t flat = 0;
      for (size_t a = 0; a < d; ++a) {
        flat = flat * static_cast<size_t>(m1_) + static_cast<size_t>(idx[a]);
      }
      flat_.ToCellCoords(flat, query, leaf_lo, leaf_hi);
      total += flat_.View(flat).FractionalSum(leaf_lo, leaf_hi);
    }
    bool rolled_over = true;
    for (size_t a = d; a-- > 0;) {
      if (++idx[a] <= b_hi[a]) {
        rolled_over = false;
        break;
      }
      idx[a] = b_lo[a];
    }
    if (rolled_over) break;
  }
  return total;
}

double AdaptiveGridNd::Answer(const BoxNd& query) const {
  return AnswerOne(query);
}

namespace {

/// Per-thread scratch for the batched N-d border decomposition: the
/// (query, cell) pair buffer plus the axis-major SoA copy of the chunk's
/// query boxes (BoxNd stores its bounds in per-box heap vectors, so the
/// emitter transposes once and the kernels gather lanes from flat
/// arrays). Thread-local (not per-call) because QueryEngine shards one
/// batch across threads, and capacity persists so steady-state batches
/// allocate nothing.
struct AgNdBatchScratch {
  std::vector<CellPair> pairs;
  std::vector<double> qlo;
  std::vector<double> qhi;
};

AgNdBatchScratch& GetAgNdBatchScratch() {
  thread_local AgNdBatchScratch scratch;
  return scratch;
}

/// Queries decomposed per chunk before the border kernels run; big enough
/// that same-cell runs form in the sorted pair array, small enough that
/// the pair/contribution buffers stay cache-resident.
constexpr size_t kAgChunkNd = 4096;

}  // namespace

void AdaptiveGridNd::AnswerBatch(std::span<const BoxNd> queries,
                                 std::span<double> out) const {
  DPGRID_CHECK(queries.size() == out.size());
  const BoxNd* q = queries.data();
  double* o = out.data();
  const size_t n = queries.size();
  const size_t d = level1_->dims();
  AgNdBatchScratch& s = GetAgNdBatchScratch();
  s.qlo.resize(d * kAgChunkNd);
  s.qhi.resize(d * kAgChunkNd);
  double* qlo = s.qlo.data();
  double* qhi = s.qhi.data();
  // Sort-bucket histogram, maintained during emission so the pair sort
  // skips its counting pass.
  const uint32_t sort_shift = flat_.pair_sort_shift();
  uint32_t hist[kPairSortBuckets];

  double org[PrefixSumNd::kMaxDims];
  double inv[PrefixSumNd::kMaxDims];
  for (size_t a = 0; a < d; ++a) {
    org[a] = level1_->domain().lo(a);
    inv[a] = level1_->inv_cell_extents()[a];
  }
  const double m1f = static_cast<double>(m1_);
  const auto m1u = static_cast<uint32_t>(m1_);

  // Two passes per chunk: decompose every query against the level-1 grid
  // (interior answered straight from the level-1 prefix sums, border
  // cells emitted as (query, cell) jobs), answer all border jobs through
  // the flattened leaf kernel, then accumulate the contributions.
  // Emission is query-major and ascending-flat within a query, and
  // accumulation follows emission order, so each out[i] is built by
  // exactly the operation sequence of the scalar AnswerOneFlat — bitwise
  // identical.
  for (size_t base = 0; base < n; base += kAgChunkNd) {
    const size_t chunk = std::min(kAgChunkNd, n - base);
    // Transpose the chunk's boxes once; the decomposition below and the
    // kernels both read only this copy, so they see bitwise the same
    // coordinates the scalar path reads from the BoxNd.
    for (size_t k = 0; k < chunk; ++k) {
      const BoxNd& query = q[base + k];
      for (size_t a = 0; a < d; ++a) {
        qlo[a * kAgChunkNd + k] = query.lo(a);
        qhi[a * kAgChunkNd + k] = query.hi(a);
      }
    }
    size_t np = 0;
    std::fill(hist, hist + kPairSortBuckets, 0u);
    for (size_t k = 0; k < chunk; ++k) {
      // Level-1 decomposition, axis by axis — AnswerOneFlat's exact
      // arithmetic on the SoA copy.
      int64_t b_lo[PrefixSumNd::kMaxDims];
      int64_t b_hi[PrefixSumNd::kMaxDims];
      size_t full_lo[PrefixSumNd::kMaxDims];
      size_t full_hi[PrefixSumNd::kMaxDims];
      bool has_interior = true;
      bool empty = false;
      for (size_t a = 0; a < d; ++a) {
        double lo = (qlo[a * kAgChunkNd + k] - org[a]) * inv[a];
        double hi = (qhi[a * kAgChunkNd + k] - org[a]) * inv[a];
        lo = std::clamp(lo, 0.0, m1f);
        hi = std::clamp(hi, 0.0, m1f);
        if (hi <= lo) {
          empty = true;
          break;
        }
        b_lo[a] = std::clamp<int64_t>(static_cast<int64_t>(std::floor(lo)),
                                      0, m1_ - 1);
        b_hi[a] = std::clamp<int64_t>(
            static_cast<int64_t>(std::ceil(hi)) - 1, 0, m1_ - 1);
        const int64_t f_lo =
            (lo <= static_cast<double>(b_lo[a])) ? b_lo[a] : b_lo[a] + 1;
        const int64_t f_hi =
            (hi >= static_cast<double>(b_hi[a] + 1)) ? b_hi[a] + 1 : b_hi[a];
        full_lo[a] = static_cast<size_t>(f_lo);
        full_hi[a] = static_cast<size_t>(std::max<int64_t>(f_lo, f_hi));
        if (full_hi[a] <= full_lo[a]) has_interior = false;
      }
      if (empty) {
        o[base + k] = 0.0;
        continue;
      }

      double total = 0.0;
      if (has_interior) {
        // `+=`, not `=`: keeps even a -0.0 block sum on the scalar path's
        // exact accumulation sequence.
        total += level1_prefix_->BlockSum(full_lo, full_hi);
      }
      o[base + k] = total;

      // Exact border-pair count for this query: overlapped cells minus
      // the interior block (full_hi >= full_lo per axis by construction,
      // even when there is no interior).
      size_t span_prod = 1;
      size_t full_prod = 1;
      for (size_t a = 0; a < d; ++a) {
        span_prod *= static_cast<size_t>(b_hi[a] - b_lo[a] + 1);
        full_prod *= full_hi[a] - full_lo[a];
      }
      const size_t need = span_prod - (has_interior ? full_prod : 0);
      if (s.pairs.size() < np + need) {
        s.pairs.resize(std::max(np + need, 2 * s.pairs.size()));
      }
      CellPair* pw = s.pairs.data();

      const auto qk = static_cast<uint32_t>(k);
      // Emits the contiguous cell range [c0, c1) for this query: one
      // histogram range-add per touched sort bucket (instead of a
      // counter increment per cell), then tight consecutive-cell stores.
      const auto emit_run = [&](uint32_t c0, uint32_t c1) {
        const uint32_t b1 = (c1 - 1) >> sort_shift;
        for (uint32_t b = c0 >> sort_shift; b <= b1; ++b) {
          const uint32_t lo = std::max(c0, b << sort_shift);
          const uint32_t hi = std::min(c1, (b + 1) << sort_shift);
          hist[b] += hi - lo;
        }
        for (uint32_t c = c0; c < c1; ++c) pw[np++] = CellPair{qk, c};
      };

      // Border cells in ascending flat order: an odometer over the outer
      // axes (0..d-2) with contiguous runs along the last (fastest) axis,
      // skipping the interior block — the AnswerOneFlat walk with the
      // last-axis loop fused into range emissions.
      int64_t idx[PrefixSumNd::kMaxDims];
      for (size_t a = 0; a + 1 < d; ++a) idx[a] = b_lo[a];
      const size_t last = d - 1;
      const auto c_lo = static_cast<uint32_t>(b_lo[last]);
      const auto c_hi = static_cast<uint32_t>(b_hi[last]) + 1;
      const auto i_lo = static_cast<uint32_t>(full_lo[last]);
      const auto i_hi = static_cast<uint32_t>(full_hi[last]);
      while (true) {
        uint32_t row = 0;
        for (size_t a = 0; a + 1 < d; ++a) {
          row = row * m1u + static_cast<uint32_t>(idx[a]);
        }
        row *= m1u;
        bool row_interior = has_interior;
        if (row_interior) {
          for (size_t a = 0; a + 1 < d; ++a) {
            if (idx[a] < static_cast<int64_t>(full_lo[a]) ||
                idx[a] >= static_cast<int64_t>(full_hi[a])) {
              row_interior = false;
              break;
            }
          }
        }
        if (!row_interior) {
          emit_run(row + c_lo, row + c_hi);
        } else {
          if (c_lo < i_lo) emit_run(row + c_lo, row + i_lo);
          if (i_hi < c_hi) emit_run(row + i_hi, row + c_hi);
        }
        bool rolled_over = true;
        for (size_t a = d - 1; a-- > 0;) {
          if (++idx[a] <= b_hi[a]) {
            rolled_over = false;
            break;
          }
          idx[a] = b_lo[a];
        }
        if (rolled_over) break;
      }
    }
    DPGRID_CHECK_MSG(np <= std::numeric_limits<uint32_t>::max(),
                     "border pair count exceeds 32-bit indexing");

    AccumulateCellPairsNd(flat_, qlo, qhi, kAgChunkNd, s.pairs.data(), np,
                          hist, o + base);
  }
}

std::string AdaptiveGridNd::Name() const {
  return "A" + std::to_string(level1_->dims()) + "d-" + std::to_string(m1_);
}

int AdaptiveGridNd::Level2Size(size_t flat) const {
  return static_cast<int>(leaves_[flat].counts->sizes()[0]);
}

int64_t AdaptiveGridNd::TotalLeafCells() const {
  int64_t total = 0;
  for (const LeafBlock& block : leaves_) {
    total += static_cast<int64_t>(block.counts->num_cells());
  }
  return total;
}

}  // namespace dpgrid
