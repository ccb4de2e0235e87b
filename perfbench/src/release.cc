#include "release.h"

#include <algorithm>

#include "common/random.h"
#include "grid/adaptive_grid.h"
#include "grid/uniform_grid.h"
#include "nd/adaptive_grid_nd.h"
#include "nd/uniform_grid_nd.h"
#include "store/snapshot.h"

namespace perfbench {

using namespace dpgrid;

int64_t Inputs::size() const {
  return points2d ? points2d->size() : points_nd->size();
}

Release::Release(double epsilon, std::unique_ptr<Synopsis> s2,
                 std::unique_ptr<SynopsisNd> snd)
    : epsilon_(epsilon), s2_(std::move(s2)), snd_(std::move(snd)) {}

void Release::Answer(const QueryEngine& engine, const Frame& frame,
                     std::span<double> out) const {
  if (s2_) {
    engine.AnswerAll(*s2_, frame.rects, out);
  } else {
    engine.AnswerAll(*snd_, frame.boxes, out);
  }
}

uint64_t Release::Publish(SnapshotStore* store, const std::string& name,
                          std::string* error) const {
  const SnapshotMeta meta{epsilon_, "perfbench"};
  return s2_ ? store->Publish(name, *s2_, meta, error)
             : store->Publish(name, *snd_, meta, error);
}

bool Release::Encode(std::string* bytes, std::string* error) const {
  const SnapshotMeta meta{epsilon_, "perfbench"};
  return s2_ ? EncodeSnapshot(*s2_, meta, bytes, error)
             : EncodeSnapshot(*snd_, meta, bytes, error);
}

std::unique_ptr<Release> BuildRelease(const Inputs& inputs,
                                      uint64_t noise_seed) {
  Rng rng(noise_seed);
  const double eps = inputs.epsilon;
  switch (inputs.kind) {
    case ReleaseKind::kUniformGrid:
      return std::make_unique<Release>(
          eps, std::make_unique<UniformGrid>(*inputs.points2d, eps, rng),
          nullptr);
    case ReleaseKind::kAdaptiveGrid:
      return std::make_unique<Release>(
          eps, std::make_unique<AdaptiveGrid>(*inputs.points2d, eps, rng),
          nullptr);
    case ReleaseKind::kUniformGridNd:
      return std::make_unique<Release>(
          eps, nullptr,
          std::make_unique<UniformGridNd>(*inputs.points_nd, eps, rng));
    case ReleaseKind::kAdaptiveGridNd:
      return std::make_unique<Release>(
          eps, nullptr,
          std::make_unique<AdaptiveGridNd>(*inputs.points_nd, eps, rng));
  }
  return nullptr;
}

Inputs CounterpartInputs(const Inputs& inputs, int64_t max_points) {
  Inputs out;
  out.epsilon = inputs.epsilon;
  const int64_t n = inputs.size();
  const int64_t stride = std::max<int64_t>(1, (n + max_points - 1) / max_points);
  if (inputs.points2d) {
    out.kind = inputs.kind == ReleaseKind::kUniformGrid
                   ? ReleaseKind::kUniformGridNd
                   : ReleaseKind::kAdaptiveGridNd;
    const Rect& d = inputs.points2d->domain();
    std::vector<PointNd> lifted;
    lifted.reserve(static_cast<size_t>(n / stride + 1));
    const auto& pts = inputs.points2d->points();
    for (int64_t i = 0; i < n; i += stride) {
      lifted.push_back({pts[i].x, pts[i].y});
    }
    out.points_nd = std::make_unique<DatasetNd>(
        BoxNd({d.xlo, d.ylo}, {d.xhi, d.yhi}), std::move(lifted));
  } else {
    out.kind = ReleaseKind::kAdaptiveGrid;
    const BoxNd& d = inputs.points_nd->domain();
    std::vector<Point2> projected;
    projected.reserve(static_cast<size_t>(n / stride + 1));
    const auto& pts = inputs.points_nd->points();
    for (int64_t i = 0; i < n; i += stride) {
      projected.push_back({pts[i][0], pts[i][1]});
    }
    out.points2d = std::make_unique<Dataset>(
        Rect{d.lo(0), d.lo(1), d.hi(0), d.hi(1)}, std::move(projected));
  }
  return out;
}

Frame CounterpartFrame(const Frame& frame) {
  Frame out;
  out.nd = !frame.nd;
  for (const Rect& r : frame.rects) {
    out.boxes.emplace_back(std::vector<double>{r.xlo, r.ylo},
                           std::vector<double>{r.xhi, r.yhi});
  }
  for (const BoxNd& b : frame.boxes) {
    out.rects.push_back(Rect{b.lo(0), b.lo(1), b.hi(0), b.hi(1)});
  }
  return out;
}

bool QueryOverWire(QueryClient* client, const std::string& name,
                   const Frame& frame, std::vector<double>* answers,
                   uint64_t* version, std::string* error) {
  WireStatus status = WireStatus::kOk;
  return frame.nd ? client->QueryBatchNd(name, frame.dims, frame.boxes,
                                         answers, version, &status, error)
                  : client->QueryBatch(name, frame.rects, answers, version,
                                       &status, error);
}

void EncodeRequest(const std::string& name, const Frame& frame,
                   std::string* out) {
  if (frame.nd) {
    EncodeQueryBatchRequestNdTo(name, frame.dims, frame.boxes, out);
  } else {
    EncodeQueryBatchRequestTo(name, frame.rects, out);
  }
}

}  // namespace perfbench
