// The benchmark's one adapter onto the synopsis families it serves.
//
// Everything that differs between a 2-D release (UG, AG over Rect frames)
// and an N-d release (AG-nd over BoxNd frames) lives behind this header:
// building, publishing, encoding, answering in process, and querying over
// DPGW. A change to how synopses are built or how 2-D is served (for
// example routing 2-D through the N-d stack) edits this file only.
#ifndef PERFBENCH_RELEASE_H_
#define PERFBENCH_RELEASE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geo/dataset.h"
#include "geo/rect.h"
#include "nd/box_nd.h"
#include "nd/dataset_nd.h"
#include "query/query_engine.h"
#include "server/client.h"
#include "server/wire.h"
#include "store/snapshot_store.h"

namespace perfbench {

enum class ReleaseKind {
  kUniformGrid,
  kAdaptiveGrid,
  kUniformGridNd,
  kAdaptiveGridNd,
};

/// The private input a release is built from: 2-D points for UG/AG,
/// d-dimensional points for AG-nd.
struct Inputs {
  ReleaseKind kind = ReleaseKind::kUniformGrid;
  double epsilon = 1.0;
  std::unique_ptr<dpgrid::Dataset> points2d;
  std::unique_ptr<dpgrid::DatasetNd> points_nd;

  int64_t size() const;
};

/// One batch of queries: Rects for 2-D releases, `dims`-dimensional BoxNds
/// for N-d releases (d = 2 included).
struct Frame {
  bool nd = false;
  uint32_t dims = 2;
  std::vector<dpgrid::Rect> rects;
  std::vector<dpgrid::BoxNd> boxes;

  size_t size() const { return nd ? boxes.size() : rects.size(); }
};

/// A built, queryable synopsis (exactly one of the two pointers is set).
class Release {
 public:
  Release(double epsilon, std::unique_ptr<dpgrid::Synopsis> s2,
          std::unique_ptr<dpgrid::SynopsisNd> snd);

  /// In-process QueryEngine::AnswerAll on `frame`.
  void Answer(const dpgrid::QueryEngine& engine, const Frame& frame,
              std::span<double> out) const;
  /// SnapshotStore::Publish; returns the new version (0 on failure).
  uint64_t Publish(dpgrid::SnapshotStore* store, const std::string& name,
                   std::string* error) const;
  /// EncodeSnapshot into *bytes.
  bool Encode(std::string* bytes, std::string* error) const;

 private:
  double epsilon_;
  std::unique_ptr<dpgrid::Synopsis> s2_;
  std::unique_ptr<dpgrid::SynopsisNd> snd_;
};

/// Builds the release for `inputs` with noise drawn from `noise_seed`:
/// the same inputs and seed give a bitwise-identical release.
std::unique_ptr<Release> BuildRelease(const Inputs& inputs,
                                      uint64_t noise_seed);

/// The same points in the other family's form, for the layer probes: a
/// 2-D release's points lifted to d = 2 (UG -> UG-nd, AG -> AG-nd), or an
/// N-d release's points projected onto their first two axes (-> AG). At
/// most `max_points` points, taken at an even stride.
Inputs CounterpartInputs(const Inputs& inputs, int64_t max_points);

/// `frame` in the counterpart family's form (see CounterpartInputs).
Frame CounterpartFrame(const Frame& frame);

/// QueryClient::QueryBatch / QueryBatchNd on `frame`.
bool QueryOverWire(dpgrid::QueryClient* client, const std::string& name,
                   const Frame& frame, std::vector<double>* answers,
                   uint64_t* version, std::string* error);

/// The request body QueryClient sends for `frame` (wire.h encoder).
void EncodeRequest(const std::string& name, const Frame& frame,
                   std::string* out);

}  // namespace perfbench

#endif  // PERFBENCH_RELEASE_H_
