// Edge cases of the adaptive grid's border-cell decomposition, asserting
// the one invariant the flattened-leaf batch pipeline must never break:
// AnswerBatch is bitwise-identical to the scalar Answer path — for
// queries landing exactly on level-1 cell boundaries, degenerate and
// out-of-domain rectangles, 1x1 leaf blocks, and max_level2_size-capped
// leaves — in 2-D and N-d, and across a snapshot-style Restore.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/generators.h"
#include "geo/rect.h"
#include "grid/adaptive_grid.h"
#include "hier/hierarchy_grid.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/dataset_nd.h"
#include "nd/workload_nd.h"
#include "query/workload.h"

namespace dpgrid {
namespace {

// Bitwise comparison of batch vs scalar on `queries`.
void ExpectBatchBitwiseEqual(const Synopsis& synopsis,
                             const std::vector<Rect>& queries) {
  std::vector<double> scalar(queries.size());
  std::vector<double> batch(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    scalar[i] = synopsis.Answer(queries[i]);
  }
  synopsis.AnswerBatch(queries, batch);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(std::memcmp(&scalar[i], &batch[i], sizeof(double)), 0)
        << "query " << i << ": scalar " << scalar[i] << " batch " << batch[i];
  }
}

// Queries exercising every decomposition edge: exact level-1 boundaries,
// single cells, single rows/columns, degenerate and inverted rects,
// out-of-domain rects, and the full domain.
std::vector<Rect> EdgeCaseQueries(const Rect& domain, int m1) {
  const double w = domain.Width() / m1;
  const double h = domain.Height() / m1;
  auto gx = [&](int i) { return domain.xlo + i * w; };
  auto gy = [&](int i) { return domain.ylo + i * h; };
  std::vector<Rect> qs;
  // Exactly one level-1 cell, on its boundary lines.
  qs.push_back(Rect{gx(1), gy(1), gx(2), gy(2)});
  // A 2x2 block on boundaries (border cells, no interior).
  qs.push_back(Rect{gx(0), gy(0), gx(2), gy(2)});
  // A 3x3 block on boundaries (1-cell interior).
  qs.push_back(Rect{gx(0), gy(0), gx(3), gy(3)});
  // Full domain on boundaries (all interior).
  qs.push_back(domain);
  // One row / one column, fractional in the other axis.
  qs.push_back(Rect{gx(0), gy(1) + 0.3 * h, gx(m1), gy(1) + 0.7 * h});
  qs.push_back(Rect{gx(1) + 0.3 * w, gy(0), gx(1) + 0.7 * w, gy(m1)});
  // Half-open halves split exactly on an interior boundary.
  qs.push_back(Rect{domain.xlo, domain.ylo, gx(m1 / 2), domain.yhi});
  qs.push_back(Rect{gx(m1 / 2), domain.ylo, domain.xhi, domain.yhi});
  // Fractional query inside one cell.
  qs.push_back(Rect{gx(1) + 0.25 * w, gy(1) + 0.25 * h, gx(1) + 0.75 * w,
                    gy(1) + 0.75 * h});
  // Fractional query straddling a boundary corner.
  qs.push_back(Rect{gx(1) - 0.5 * w, gy(1) - 0.5 * h, gx(1) + 0.5 * w,
                    gy(1) + 0.5 * h});
  // Degenerate: zero width, zero height, zero area.
  qs.push_back(Rect{gx(1), gy(0), gx(1), gy(2)});
  qs.push_back(Rect{gx(0), gy(1), gx(2), gy(1)});
  qs.push_back(Rect{gx(1), gy(1), gx(1), gy(1)});
  // Entirely outside the domain (all four sides).
  qs.push_back(Rect{domain.xlo - 2.0, domain.ylo, domain.xlo - 1.0,
                    domain.yhi});
  qs.push_back(Rect{domain.xhi + 1.0, domain.ylo, domain.xhi + 2.0,
                    domain.yhi});
  // Clamped: sticking out past every edge.
  qs.push_back(Rect{domain.xlo - 1.0, domain.ylo - 1.0, domain.xhi + 1.0,
                    domain.yhi + 1.0});
  return qs;
}

Dataset TestDataset(int64_t n, uint64_t seed) {
  Rng rng(seed);
  return MakeCheckinLike(n, rng);
}

TEST(AgBorderTest, EdgeQueriesMatchScalarBitwise) {
  const Dataset data = TestDataset(20000, 7);
  Rng rng(11);
  const AdaptiveGrid ag(data, 1.0, rng);
  ASSERT_TRUE(ag.flat_index().built());
  ASSERT_GE(ag.level1_size(), 4) << "test assumes a few level-1 cells";
  ExpectBatchBitwiseEqual(ag, EdgeCaseQueries(data.domain(), ag.level1_size()));
}

TEST(AgBorderTest, AllOneByOneLeavesMatchScalarBitwise) {
  const Dataset data = TestDataset(20000, 8);
  AdaptiveGridOptions options;
  options.max_level2_size = 1;  // every leaf degenerates to 1x1
  Rng rng(12);
  const AdaptiveGrid ag(data, 1.0, rng, options);
  for (size_t i = 0; i < ag.flat_index().num_cells(); ++i) {
    ASSERT_EQ(ag.Level2Size(i % ag.level1_size(), i / ag.level1_size()), 1);
  }
  ExpectBatchBitwiseEqual(ag, EdgeCaseQueries(data.domain(), ag.level1_size()));
}

TEST(AgBorderTest, CappedLeavesMatchScalarBitwise) {
  const Dataset data = TestDataset(50000, 9);
  AdaptiveGridOptions options;
  options.max_level2_size = 2;  // cap binds in dense cells, 1x1 elsewhere
  Rng rng(13);
  const AdaptiveGrid ag(data, 1.0, rng, options);
  ExpectBatchBitwiseEqual(ag, EdgeCaseQueries(data.domain(), ag.level1_size()));
}

TEST(AgBorderTest, RandomWorkloadMatchesScalarBitwise) {
  const Dataset data = TestDataset(30000, 10);
  Rng rng(14);
  const AdaptiveGrid ag(data, 0.5, rng);
  Rng wrng(15);
  const Workload workload =
      GenerateWorkload(data.domain(), data.domain().Width() / 2,
                       data.domain().Height() / 2, 6, 2000, wrng);
  std::vector<Rect> queries;
  for (const auto& group : workload.queries) {
    queries.insert(queries.end(), group.begin(), group.end());
  }
  ExpectBatchBitwiseEqual(ag, queries);
}

TEST(AgBorderTest, RestoredGridServesIdenticalBatches) {
  const Dataset data = TestDataset(20000, 16);
  Rng rng(17);
  const AdaptiveGrid ag(data, 1.0, rng);

  // Rebuild from copies of the persisted counts — the snapshot-store path.
  std::vector<GridCounts> leaves;
  leaves.reserve(ag.leaves().size());
  for (const AdaptiveGrid::LeafBlock& block : ag.leaves()) {
    leaves.push_back(block.counts);
  }
  const std::unique_ptr<AdaptiveGrid> restored = AdaptiveGrid::Restore(
      ag.options(), ag.level1_size(), ag.level1_counts(), std::move(leaves));
  ASSERT_TRUE(restored->flat_index().built());
  EXPECT_EQ(restored->flat_index().num_cells(), ag.flat_index().num_cells());

  const std::vector<Rect> queries =
      EdgeCaseQueries(data.domain(), ag.level1_size());
  std::vector<double> original(queries.size());
  std::vector<double> from_restore(queries.size());
  ag.AnswerBatch(queries, original);
  restored->AnswerBatch(queries, from_restore);
  EXPECT_EQ(std::memcmp(original.data(), from_restore.data(),
                        queries.size() * sizeof(double)),
            0);
  ExpectBatchBitwiseEqual(*restored, queries);
}

TEST(AgBorderTest, HierarchyGridEdgeQueriesMatchScalarBitwise) {
  const Dataset data = TestDataset(20000, 18);
  Rng rng(19);
  HierarchyGridOptions options;
  options.leaf_size = 64;
  const HierarchyGrid hier(data, 1.0, rng, options);
  ExpectBatchBitwiseEqual(hier, EdgeCaseQueries(data.domain(), 8));
}

TEST(AgBorderTest, NdEdgeQueriesMatchScalarBitwise) {
  const size_t dims = 3;
  BoxNd domain(std::vector<double>(dims, 0.0),
               std::vector<double>(dims, 10.0));
  Rng data_rng(20);
  const std::vector<ClusterNd> clusters =
      MakeRandomClustersNd(domain, 8, 0.05, 0.2, 1.0, data_rng);
  const DatasetNd data =
      MakeGaussianMixtureNd(domain, 20000, clusters, 0.1, data_rng);
  Rng rng(21);
  AdaptiveGridNdOptions options;
  options.max_level2_size = 2;
  const AdaptiveGridNd ag(data, 1.0, rng, options);
  ASSERT_TRUE(ag.flat_index().built());

  const double w = 10.0 / ag.level1_size();
  std::vector<BoxNd> queries;
  // Exact level-1 boundaries: one cell, a 2^d block, the full domain.
  queries.emplace_back(std::vector<double>(dims, w),
                       std::vector<double>(dims, 2 * w));
  queries.emplace_back(std::vector<double>(dims, 0.0),
                       std::vector<double>(dims, 2 * w));
  queries.emplace_back(std::vector<double>(dims, 0.0),
                       std::vector<double>(dims, 10.0));
  // Degenerate (zero extent on one axis) and out-of-domain boxes.
  queries.emplace_back(std::vector<double>{w, 0.0, 0.0},
                       std::vector<double>{w, 10.0, 10.0});
  queries.emplace_back(std::vector<double>(dims, -5.0),
                       std::vector<double>(dims, -1.0));
  queries.emplace_back(std::vector<double>(dims, -1.0),
                       std::vector<double>(dims, 11.0));
  // A fractional box straddling boundaries.
  queries.emplace_back(std::vector<double>(dims, 0.5 * w),
                       std::vector<double>(dims, 2.5 * w));
  // Random paper-style workload on top.
  Rng wrng(22);
  const WorkloadNd workload = GenerateWorkloadNd(
      domain, std::vector<double>(dims, 5.0), 3, 500, wrng);
  for (const auto& group : workload.queries) {
    queries.insert(queries.end(), group.begin(), group.end());
  }

  std::vector<double> scalar(queries.size());
  std::vector<double> batch(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) scalar[i] = ag.Answer(queries[i]);
  ag.AnswerBatch(queries, batch);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(std::memcmp(&scalar[i], &batch[i], sizeof(double)), 0)
        << "nd query " << i;
  }
}

}  // namespace
}  // namespace dpgrid
