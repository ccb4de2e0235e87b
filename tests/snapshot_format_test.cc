// Snapshot format tests.
//
// Format 1 stays readable: tests/data/v1_*.dpgs were written by the format-1
// encoder from the recipes in Fixture2D / FixtureNd below (see
// tests/data/README.md). Each must decode — FNV-1a checksum, prefix arrays
// shape-checked and skipped — to a synopsis that answers bitwise-identically
// to the same recipe built here.
//
// Format 2 stores counts only, under a CRC-32C checksum, and the decoder
// rejects non-finite counts: every prefix sum is rebuilt from the counts, so
// one NaN would otherwise poison every answer.

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/random.h"
#include "data/generators.h"
#include "grid/adaptive_grid.h"
#include "grid/cell_synopsis.h"
#include "grid/uniform_grid.h"
#include "hier/hierarchy_grid.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/dataset_nd.h"
#include "nd/hierarchy_nd.h"
#include "nd/uniform_grid_nd.h"
#include "store/snapshot.h"
#include "tests/test_util.h"

namespace dpgrid {
namespace {

constexpr double kEpsilon = 1.0;
constexpr char kFixtureLabel[] = "v1-fixture";

std::string ReadFixture(const std::string& name) {
  std::ifstream in(std::string(DPGRID_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

uint32_t HeaderVersion(std::string_view bytes) {
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof(version));
  return version;
}

uint64_t HeaderChecksum(std::string_view bytes) {
  uint64_t checksum = 0;
  std::memcpy(&checksum, bytes.data() + 20, sizeof(checksum));
  return checksum;
}

// Rewrites the header's payload size and checksum to match the payload,
// with the checksum the header's own version uses.
void FixupHeader(std::string* bytes) {
  const std::string_view payload =
      std::string_view(*bytes).substr(kSnapshotHeaderSize);
  const uint64_t payload_size = payload.size();
  const uint64_t checksum = HeaderVersion(*bytes) == 1
                                ? SnapshotChecksum(payload)
                                : uint64_t{Crc32c(payload)};
  std::memcpy(bytes->data() + 12, &payload_size, sizeof(payload_size));
  std::memcpy(bytes->data() + 20, &checksum, sizeof(checksum));
}

const Dataset& Data2D() {
  static const Dataset data = [] {
    Rng rng(71);
    return MakeCheckinLike(800, rng);
  }();
  return data;
}

const DatasetNd& DataNd() {
  static const DatasetNd data = [] {
    Rng rng(76);
    return MakeUniformDatasetNd(BoxNd::Cube(3, 0.0, 100.0), 800, rng);
  }();
  return data;
}

// The recipes behind tests/data/v1_*.dpgs (all at ε = 1).
std::unique_ptr<Synopsis> Fixture2D(SynopsisKind kind) {
  switch (kind) {
    case SynopsisKind::kUniformGrid: {
      Rng rng(72);
      UniformGridOptions o;
      o.grid_size = 10;
      return std::make_unique<UniformGrid>(Data2D(), kEpsilon, rng, o);
    }
    case SynopsisKind::kAdaptiveGrid: {
      Rng rng(73);
      AdaptiveGridOptions o;
      o.level1_size = 3;
      return std::make_unique<AdaptiveGrid>(Data2D(), kEpsilon, rng, o);
    }
    case SynopsisKind::kHierarchyGrid: {
      Rng rng(74);
      HierarchyGridOptions o;
      o.leaf_size = 8;
      o.branching = 2;
      o.depth = 3;
      return std::make_unique<HierarchyGrid>(Data2D(), kEpsilon, rng, o);
    }
    case SynopsisKind::kCellSynopsis: {
      Rng rng(75);
      UniformGridOptions o;
      o.grid_size = 4;
      const UniformGrid ug(Data2D(), kEpsilon, rng, o);
      return std::make_unique<CellSynopsis>(ug.ExportCells(),
                                            "fixture-cells");
    }
    default:
      return nullptr;
  }
}

std::unique_ptr<SynopsisNd> FixtureNd(SynopsisKind kind) {
  switch (kind) {
    case SynopsisKind::kUniformGridNd: {
      Rng rng(77);
      UniformGridNdOptions o;
      o.grid_size = 5;
      return std::make_unique<UniformGridNd>(DataNd(), kEpsilon, rng, o);
    }
    case SynopsisKind::kAdaptiveGridNd: {
      Rng rng(78);
      AdaptiveGridNdOptions o;
      o.level1_size = 2;
      return std::make_unique<AdaptiveGridNd>(DataNd(), kEpsilon, rng, o);
    }
    case SynopsisKind::kHierarchyNd: {
      Rng rng(79);
      HierarchyNdOptions o;
      o.leaf_size = 4;
      o.branching = 2;
      o.depth = 2;
      return std::make_unique<HierarchyNd>(DataNd(), kEpsilon, rng, o);
    }
    default:
      return nullptr;
  }
}

struct FixtureFile {
  SynopsisKind kind;
  const char* file;
};

constexpr FixtureFile kFixtures[] = {
    {SynopsisKind::kUniformGrid, "v1_uniform_grid.dpgs"},
    {SynopsisKind::kAdaptiveGrid, "v1_adaptive_grid.dpgs"},
    {SynopsisKind::kHierarchyGrid, "v1_hierarchy_grid.dpgs"},
    {SynopsisKind::kCellSynopsis, "v1_cell_synopsis.dpgs"},
    {SynopsisKind::kUniformGridNd, "v1_uniform_grid_nd.dpgs"},
    {SynopsisKind::kAdaptiveGridNd, "v1_adaptive_grid_nd.dpgs"},
    {SynopsisKind::kHierarchyNd, "v1_hierarchy_nd.dpgs"},
};

// Batch and scalar answers of `decoded` must equal `built`'s bit for bit.
template <typename S, typename Query>
void ExpectBitwiseSameAnswers(const S& built, const S& decoded,
                              const std::vector<Query>& queries) {
  std::vector<double> expected(queries.size());
  std::vector<double> actual(queries.size());
  built.AnswerBatch(queries, expected);
  decoded.AnswerBatch(queries, actual);
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        queries.size() * sizeof(double)),
            0);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(built.Answer(queries[i])),
              std::bit_cast<uint64_t>(decoded.Answer(queries[i])))
        << "query " << i;
  }
}

TEST(SnapshotFormatTest, V1FixturesDecodeAndAnswerBitwise) {
  const SnapshotMeta meta{kEpsilon, kFixtureLabel};
  const std::vector<Rect> queries =
      test::FixedQueries(Data2D().domain(), 400, 91);
  const std::vector<BoxNd> queries_nd =
      test::FixedQueriesNd(DataNd().domain(), 400, 92);
  for (const FixtureFile& f : kFixtures) {
    SCOPED_TRACE(f.file);
    const std::string bytes = ReadFixture(f.file);
    ASSERT_GE(bytes.size(), kSnapshotHeaderSize);
    EXPECT_EQ(HeaderVersion(bytes), 1u);

    DecodedSnapshot decoded;
    std::string error;
    ASSERT_TRUE(DecodeSnapshot(bytes, &decoded, &error)) << error;
    EXPECT_EQ(decoded.kind, f.kind);
    EXPECT_EQ(decoded.meta.epsilon, kEpsilon);
    EXPECT_EQ(decoded.meta.label, kFixtureLabel);

    // Re-encoding writes format 2 holding exactly the recipe's counts.
    std::string expected_v2;
    std::string reencoded;
    if (decoded.synopsis != nullptr) {
      const std::unique_ptr<Synopsis> built = Fixture2D(f.kind);
      ASSERT_NE(built, nullptr);
      EXPECT_EQ(decoded.synopsis->Name(), built->Name());
      ExpectBitwiseSameAnswers(*built, *decoded.synopsis, queries);
      ASSERT_TRUE(EncodeSnapshot(*built, meta, &expected_v2, &error));
      ASSERT_TRUE(
          EncodeSnapshot(*decoded.synopsis, meta, &reencoded, &error));
    } else {
      ASSERT_NE(decoded.synopsis_nd, nullptr);
      const std::unique_ptr<SynopsisNd> built = FixtureNd(f.kind);
      ASSERT_NE(built, nullptr);
      EXPECT_EQ(decoded.synopsis_nd->Name(), built->Name());
      ExpectBitwiseSameAnswers(*built, *decoded.synopsis_nd, queries_nd);
      ASSERT_TRUE(EncodeSnapshot(*built, meta, &expected_v2, &error));
      ASSERT_TRUE(
          EncodeSnapshot(*decoded.synopsis_nd, meta, &reencoded, &error));
    }
    EXPECT_EQ(HeaderVersion(reencoded), kSnapshotFormatVersion);
    EXPECT_EQ(reencoded, expected_v2);
    if (f.kind == SynopsisKind::kCellSynopsis) {
      EXPECT_EQ(reencoded.size(), bytes.size());  // never had prefix arrays
    } else {
      EXPECT_LT(reencoded.size(), bytes.size());
    }
  }
}

TEST(SnapshotFormatTest, V1PrefixArraysAreShapeCheckedAndSkipped) {
  const std::string base = ReadFixture("v1_uniform_grid.dpgs");
  // Format 1 UG payload: meta (f64 + string), domain (4 f64), nx, ny, the
  // 10 x 10 value array (u64 length + data), then the prefix array's nx,
  // ny and corner array.
  const size_t prefix_offset =
      kSnapshotHeaderSize + sizeof(double) + sizeof(uint32_t) +
      std::strlen(kFixtureLabel) + 4 * sizeof(double) +
      3 * sizeof(uint64_t) + 100 * sizeof(double);
  const auto decode_error = [](const std::string& bytes) {
    DecodedSnapshot decoded;
    std::string error;
    EXPECT_FALSE(DecodeSnapshot(bytes, &decoded, &error));
    EXPECT_EQ(decoded.synopsis, nullptr);
    return error;
  };
  {
    // The offset arithmetic is right: the fixed-up original still decodes.
    std::string bytes = base;
    uint64_t nx = 0;
    std::memcpy(&nx, bytes.data() + prefix_offset, sizeof(nx));
    EXPECT_EQ(nx, 10u);
    FixupHeader(&bytes);
    EXPECT_EQ(bytes, base);
  }
  {
    std::string bytes = base;
    const uint64_t nx = 11;
    std::memcpy(bytes.data() + prefix_offset, &nx, sizeof(nx));
    FixupHeader(&bytes);
    EXPECT_EQ(decode_error(bytes),
              "prefix index shape does not match its grid");
  }
  {
    std::string bytes = base;
    const uint64_t corners = 11 * 11 - 1;
    std::memcpy(bytes.data() + prefix_offset + 2 * sizeof(uint64_t),
                &corners, sizeof(corners));
    FixupHeader(&bytes);
    EXPECT_EQ(decode_error(bytes),
              "prefix corner count does not match dimensions");
  }
  {
    std::string bytes = base;
    bytes.resize(bytes.size() - sizeof(double));
    FixupHeader(&bytes);
    EXPECT_NE(decode_error(bytes).find("truncated"), std::string::npos);
  }
}

TEST(SnapshotFormatTest, ChecksumFollowsTheVersion) {
  // Format 1 is verified with FNV-1a only: a CRC-32C in its slot fails.
  std::string v1 = ReadFixture("v1_uniform_grid.dpgs");
  const std::string_view v1_payload =
      std::string_view(v1).substr(kSnapshotHeaderSize);
  EXPECT_EQ(HeaderChecksum(v1), SnapshotChecksum(v1_payload));
  const uint64_t crc = Crc32c(v1_payload);
  std::memcpy(v1.data() + 20, &crc, sizeof(crc));
  DecodedSnapshot decoded;
  std::string error;
  EXPECT_FALSE(DecodeSnapshot(v1, &decoded, &error));
  EXPECT_EQ(error, "payload checksum mismatch");

  // Format 2 carries CRC-32C zero-extended: FNV-1a, or stray high bits,
  // fail.
  std::string v2;
  ASSERT_TRUE(EncodeSnapshot(*Fixture2D(SynopsisKind::kUniformGrid),
                             SnapshotMeta{kEpsilon, "v2"}, &v2, &error));
  const std::string_view v2_payload =
      std::string_view(v2).substr(kSnapshotHeaderSize);
  EXPECT_EQ(HeaderChecksum(v2), uint64_t{Crc32c(v2_payload)});
  for (const uint64_t wrong :
       {SnapshotChecksum(v2_payload),
        uint64_t{Crc32c(v2_payload)} | (uint64_t{1} << 40)}) {
    std::string bytes = v2;
    std::memcpy(bytes.data() + 20, &wrong, sizeof(wrong));
    EXPECT_FALSE(DecodeSnapshot(bytes, &decoded, &error));
    EXPECT_EQ(error, "payload checksum mismatch");
  }
}

TEST(SnapshotFormatTest, V2UniformGridStoresCountsOnly) {
  Rng rng(81);
  UniformGridOptions o;
  o.grid_size = 12;
  o.aspect_aware = true;  // nx != ny, so a swapped factor would show
  const UniformGrid ug(Data2D(), kEpsilon, rng, o);
  const size_t nx = ug.noisy_counts().nx();
  const size_t ny = ug.noisy_counts().ny();
  ASSERT_NE(nx, ny);
  const std::string label = "layout";
  std::string bytes;
  std::string error;
  ASSERT_TRUE(
      EncodeSnapshot(ug, SnapshotMeta{kEpsilon, label}, &bytes, &error));
  EXPECT_EQ(HeaderVersion(bytes), 2u);
  const size_t meta = sizeof(double) + sizeof(uint32_t) + label.size();
  // Domain (4 f64), nx, ny and the value array's length.
  const size_t grid_fields = 4 * sizeof(double) + 3 * sizeof(uint64_t);
  EXPECT_EQ(bytes.size(), kSnapshotHeaderSize + meta + grid_fields +
                              sizeof(double) * nx * ny);
}

// One encoded double to overwrite, and the error its damage must produce.
struct Probe {
  const char* what;
  double value;  // located by its first exact 8-byte match in the payload
  const char* error;
};

void ExpectNonFiniteRejected(const std::string& bytes,
                             const std::vector<Probe>& probes) {
  constexpr char kGridError[] = "grid has non-finite counts";
  for (const Probe& p : probes) {
    SCOPED_TRACE(p.what);
    char pattern[sizeof(double)];
    std::memcpy(pattern, &p.value, sizeof(double));
    const size_t at = bytes.find(std::string_view(pattern, sizeof(pattern)),
                                 kSnapshotHeaderSize);
    ASSERT_NE(at, std::string::npos);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      std::string damaged = bytes;
      std::memcpy(damaged.data() + at, &bad, sizeof(bad));
      FixupHeader(&damaged);
      DecodedSnapshot decoded;
      std::string error;
      EXPECT_FALSE(DecodeSnapshot(damaged, &decoded, &error)) << bad;
      EXPECT_EQ(error, p.error == nullptr ? kGridError : p.error) << bad;
      EXPECT_EQ(decoded.synopsis, nullptr);
      EXPECT_EQ(decoded.synopsis_nd, nullptr);
    }
  }
}

template <typename S>
std::string Encode(const S& synopsis) {
  std::string bytes;
  std::string error;
  EXPECT_TRUE(EncodeSnapshot(synopsis, SnapshotMeta{kEpsilon, "nan"}, &bytes,
                             &error))
      << error;
  return bytes;
}

TEST(SnapshotFormatTest, NonFiniteCountsAreRejected2D) {
  {
    const auto ug = Fixture2D(SynopsisKind::kUniformGrid);
    const auto& g = dynamic_cast<const UniformGrid&>(*ug).noisy_counts();
    ExpectNonFiniteRejected(Encode(*ug),
                            {{"ug count", g.values()[5], nullptr}});
  }
  {
    const auto s = Fixture2D(SynopsisKind::kAdaptiveGrid);
    const auto& ag = dynamic_cast<const AdaptiveGrid&>(*s);
    ExpectNonFiniteRejected(
        Encode(*s),
        {{"level-1 count", ag.level1_counts().values()[4], nullptr},
         {"leaf count", ag.leaves().back().counts.values()[0], nullptr}});
  }
  {
    const auto s = Fixture2D(SynopsisKind::kHierarchyGrid);
    const auto& h = dynamic_cast<const HierarchyGrid&>(*s);
    ExpectNonFiniteRejected(
        Encode(*s), {{"leaf count", h.leaf_counts().values()[9], nullptr}});
  }
  {
    const auto s = Fixture2D(SynopsisKind::kCellSynopsis);
    const std::vector<SynopsisCell> cells = s->ExportCells();
    constexpr char kCellError[] =
        "cell synopsis has a non-finite region or count";
    ExpectNonFiniteRejected(Encode(*s),
                            {{"cell count", cells[6].count, kCellError},
                             {"cell bound", cells[2].region.xhi, kCellError}});
  }
}

TEST(SnapshotFormatTest, NonFiniteCountsAreRejectedNd) {
  {
    const auto s = FixtureNd(SynopsisKind::kUniformGridNd);
    const auto& ug = dynamic_cast<const UniformGridNd&>(*s);
    ExpectNonFiniteRejected(
        Encode(*s), {{"ug-nd count", ug.noisy_counts().values()[7], nullptr}});
  }
  {
    const auto s = FixtureNd(SynopsisKind::kAdaptiveGridNd);
    const auto& ag = dynamic_cast<const AdaptiveGridNd&>(*s);
    ExpectNonFiniteRejected(
        Encode(*s),
        {{"level-1 count", ag.level1_counts().values()[3], nullptr},
         {"leaf count", ag.leaves().back().counts->values()[0], nullptr}});
  }
  {
    const auto s = FixtureNd(SynopsisKind::kHierarchyNd);
    const auto& h = dynamic_cast<const HierarchyNd&>(*s);
    ExpectNonFiniteRejected(
        Encode(*s), {{"leaf count", h.leaf_counts().values()[11], nullptr}});
  }
}

}  // namespace
}  // namespace dpgrid
