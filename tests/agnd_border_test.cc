// Edge cases of the N-d adaptive grid's border-cell decomposition,
// asserting the invariant the dimension-generic batch pipeline must never
// break: AnswerBatch is bitwise-identical to the scalar Answer path — for
// boxes landing exactly on level-1 cell boundaries, degenerate and
// out-of-domain boxes, all-1^d and max_level2_size-capped leaves — at
// dims 2, 3 and 4, and across a snapshot-style Restore.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/dataset_nd.h"
#include "nd/workload_nd.h"

namespace dpgrid {
namespace {

DatasetNd TestDatasetNd(size_t dims, int64_t n, uint64_t seed) {
  const BoxNd domain(std::vector<double>(dims, 0.0),
                     std::vector<double>(dims, 10.0));
  Rng rng(seed);
  const std::vector<ClusterNd> clusters =
      MakeRandomClustersNd(domain, 8, 0.05, 0.2, 1.0, rng);
  return MakeGaussianMixtureNd(domain, n, clusters, 0.1, rng);
}

// Bitwise comparison of batch vs scalar on `queries`.
void ExpectBatchBitwiseEqual(const AdaptiveGridNd& ag,
                             const std::vector<BoxNd>& queries) {
  std::vector<double> scalar(queries.size());
  std::vector<double> batch(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    scalar[i] = ag.Answer(queries[i]);
  }
  ag.AnswerBatch(queries, batch);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(std::memcmp(&scalar[i], &batch[i], sizeof(double)), 0)
        << "query " << i << ": scalar " << scalar[i] << " batch " << batch[i];
  }
}

// Boxes exercising every decomposition edge of an m1^d level-1 grid over
// [0, 10]^d: exact level-1 boundaries, blocks with and without interior,
// slabs, degenerate (zero-extent) axes, out-of-domain and clamped boxes,
// and fractional straddles.
std::vector<BoxNd> EdgeCaseBoxes(size_t dims, int m1) {
  const double w = 10.0 / m1;
  auto cube = [&](double lo, double hi) {
    return BoxNd(std::vector<double>(dims, lo), std::vector<double>(dims, hi));
  };
  std::vector<BoxNd> qs;
  // Exactly one level-1 cell, on its boundary planes.
  qs.push_back(cube(w, 2 * w));
  // A 2^d block on boundaries (all border, no interior).
  qs.push_back(cube(0.0, 2 * w));
  // A 3^d block on boundaries (1-cell interior).
  if (m1 >= 3) qs.push_back(cube(0.0, 3 * w));
  // Full domain on boundaries (all interior).
  qs.push_back(cube(0.0, 10.0));
  // A slab: full domain except one fractional axis.
  {
    std::vector<double> lo(dims, 0.0);
    std::vector<double> hi(dims, 10.0);
    lo[0] = w + 0.3 * w;
    hi[0] = w + 0.7 * w;
    qs.emplace_back(lo, hi);
  }
  // Degenerate: zero extent along the first axis, then along the last.
  {
    std::vector<double> lo(dims, 0.0);
    std::vector<double> hi(dims, 10.0);
    lo[0] = hi[0] = w;
    qs.emplace_back(lo, hi);
  }
  {
    std::vector<double> lo(dims, 0.0);
    std::vector<double> hi(dims, 10.0);
    lo[dims - 1] = hi[dims - 1] = w;
    qs.emplace_back(lo, hi);
  }
  // Fully degenerate point box on a lattice corner.
  qs.push_back(cube(w, w));
  // Fractional box inside one cell.
  qs.push_back(cube(w + 0.25 * w, w + 0.75 * w));
  // Fractional box straddling a boundary corner.
  qs.push_back(cube(w - 0.5 * w, w + 0.5 * w));
  // Entirely outside the domain; sticking out past every face.
  qs.push_back(cube(-5.0, -1.0));
  qs.push_back(cube(10.5, 12.0));
  qs.push_back(cube(-1.0, 11.0));
  return qs;
}

std::vector<BoxNd> WorkloadBoxes(size_t dims, size_t per_size, uint64_t seed) {
  const BoxNd domain(std::vector<double>(dims, 0.0),
                     std::vector<double>(dims, 10.0));
  Rng rng(seed);
  const WorkloadNd workload = GenerateWorkloadNd(
      domain, std::vector<double>(dims, 5.0), 3, per_size, rng);
  std::vector<BoxNd> queries;
  for (const auto& group : workload.queries) {
    queries.insert(queries.end(), group.begin(), group.end());
  }
  return queries;
}

class AgNdBorderTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AgNdBorderTest, EdgeQueriesMatchScalarBitwise) {
  const size_t dims = GetParam();
  const DatasetNd data = TestDatasetNd(dims, 20000, 30 + dims);
  Rng rng(40 + dims);
  const AdaptiveGridNd ag(data, 1.0, rng);
  ASSERT_TRUE(ag.flat_index().built());
  ASSERT_EQ(ag.flat_index().dims(), dims);
  ExpectBatchBitwiseEqual(ag, EdgeCaseBoxes(dims, ag.level1_size()));
}

TEST_P(AgNdBorderTest, RandomWorkloadMatchesScalarBitwise) {
  const size_t dims = GetParam();
  const DatasetNd data = TestDatasetNd(dims, 30000, 50 + dims);
  Rng rng(60 + dims);
  const AdaptiveGridNd ag(data, 0.5, rng);
  ExpectBatchBitwiseEqual(ag, WorkloadBoxes(dims, 700, 70 + dims));
}

INSTANTIATE_TEST_SUITE_P(Dims, AgNdBorderTest, ::testing::Values(2, 3, 4));

TEST(AgNdBorderTest, AllUnitLeavesMatchScalarBitwise) {
  const DatasetNd data = TestDatasetNd(3, 20000, 80);
  AdaptiveGridNdOptions options;
  options.max_level2_size = 1;  // every leaf degenerates to 1^d
  Rng rng(81);
  const AdaptiveGridNd ag(data, 1.0, rng, options);
  for (size_t i = 0; i < ag.flat_index().num_cells(); ++i) {
    ASSERT_TRUE(ag.flat_index().IsUnitLeaf(i));
  }
  ExpectBatchBitwiseEqual(ag, EdgeCaseBoxes(3, ag.level1_size()));
  ExpectBatchBitwiseEqual(ag, WorkloadBoxes(3, 500, 82));
}

TEST(AgNdBorderTest, CappedLeavesMatchScalarBitwise) {
  const DatasetNd data = TestDatasetNd(3, 50000, 83);
  AdaptiveGridNdOptions options;
  options.max_level2_size = 2;  // cap binds in dense cells, 1^d elsewhere
  Rng rng(84);
  const AdaptiveGridNd ag(data, 1.0, rng, options);
  bool has_multi = false;
  for (size_t i = 0; i < ag.flat_index().num_cells(); ++i) {
    if (!ag.flat_index().IsUnitLeaf(i)) has_multi = true;
  }
  EXPECT_TRUE(has_multi) << "expected the level-2 cap to bind somewhere";
  ExpectBatchBitwiseEqual(ag, EdgeCaseBoxes(3, ag.level1_size()));
  ExpectBatchBitwiseEqual(ag, WorkloadBoxes(3, 500, 85));
}

TEST(AgNdBorderTest, RestoredGridServesIdenticalBatches) {
  const DatasetNd data = TestDatasetNd(3, 20000, 86);
  Rng rng(87);
  const AdaptiveGridNd ag(data, 1.0, rng);

  // Rebuild from copies of the persisted counts — the snapshot-store path.
  std::vector<GridNd> leaves;
  leaves.reserve(ag.leaves().size());
  for (const AdaptiveGridNd::LeafBlock& block : ag.leaves()) {
    leaves.push_back(*block.counts);
  }
  const std::unique_ptr<AdaptiveGridNd> restored = AdaptiveGridNd::Restore(
      ag.options(), ag.level1_size(), ag.level1_counts(), std::move(leaves));
  ASSERT_TRUE(restored->flat_index().built());
  EXPECT_EQ(restored->flat_index().num_cells(), ag.flat_index().num_cells());

  std::vector<BoxNd> queries = EdgeCaseBoxes(3, ag.level1_size());
  const std::vector<BoxNd> extra = WorkloadBoxes(3, 500, 88);
  queries.insert(queries.end(), extra.begin(), extra.end());
  std::vector<double> original(queries.size());
  std::vector<double> from_restore(queries.size());
  ag.AnswerBatch(queries, original);
  restored->AnswerBatch(queries, from_restore);
  EXPECT_EQ(std::memcmp(original.data(), from_restore.data(),
                        queries.size() * sizeof(double)),
            0);
  ExpectBatchBitwiseEqual(*restored, queries);
}

}  // namespace
}  // namespace dpgrid
