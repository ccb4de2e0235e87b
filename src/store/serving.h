#ifndef DPGRID_STORE_SERVING_H_
#define DPGRID_STORE_SERVING_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>

#include "common/check.h"
#include "query/query_engine.h"
#include "store/snapshot.h"

namespace dpgrid {

/// A hot-swappable serving slot for one synopsis name: the read side of the
/// snapshot pipeline.
///
/// Readers call Acquire() (or AnswerBatch, which acquires once per batch)
/// and get a shared_ptr to an immutable Snapshot; a writer calling Publish
/// swaps the slot's pointer RCU-style. In-flight batches keep the old
/// snapshot alive through their shared_ptr and finish against it, so every
/// batch is answered by exactly one version — never a mix — and the old
/// synopsis is freed when the last reader drops it. No reader ever blocks
/// on a publish for longer than the pointer swap itself.
///
/// The pointer slot is a mutex-guarded shared_ptr. The lock covers only a
/// reference-count bump or a pointer swap: queries run outside it, and a
/// replaced snapshot is freed after the unlock, so no reader waits while
/// a synopsis is destroyed.
template <typename SynopsisT, typename QueryT>
class BasicServingSynopsis {
 public:
  /// An immutable published version.
  struct Snapshot {
    uint64_t version = 0;
    SnapshotMeta meta;
    std::shared_ptr<const SynopsisT> synopsis;
  };

  BasicServingSynopsis() = default;
  BasicServingSynopsis(const BasicServingSynopsis&) = delete;
  BasicServingSynopsis& operator=(const BasicServingSynopsis&) = delete;

  /// Atomically swaps `synopsis` in as the current version. `version` 0
  /// auto-increments from the previous one; pass the SnapshotStore's
  /// version to keep the serving handle and the durable store in step.
  /// Returns the version now being served.
  uint64_t Publish(std::shared_ptr<const SynopsisT> synopsis,
                   SnapshotMeta meta = {}, uint64_t version = 0) {
    DPGRID_CHECK(synopsis != nullptr);
    auto next = std::make_shared<Snapshot>();
    next->meta = std::move(meta);
    next->synopsis = std::move(synopsis);
    std::lock_guard<std::mutex> lock(publish_mu_);
    const auto prev = Load();
    next->version = version != 0 ? version
                                 : (prev != nullptr ? prev->version + 1 : 1);
    Store(next);
    return next->version;
  }

  /// Publishes only if `version` is strictly newer than what the slot
  /// serves — the hot-reload path, where a concurrent in-process
  /// publisher may have installed something newer between the caller's
  /// version check and its (slow) snapshot load. The check and the swap
  /// share the writer lock, so the served version never moves backwards.
  /// Returns true if installed.
  bool PublishIfNewer(std::shared_ptr<const SynopsisT> synopsis,
                      SnapshotMeta meta, uint64_t version) {
    DPGRID_CHECK(synopsis != nullptr);
    DPGRID_CHECK(version != 0);
    auto next = std::make_shared<Snapshot>();
    next->meta = std::move(meta);
    next->synopsis = std::move(synopsis);
    next->version = version;
    std::lock_guard<std::mutex> lock(publish_mu_);
    const auto prev = Load();
    if (prev != nullptr && prev->version >= version) return false;
    Store(next);
    return true;
  }

  /// The current snapshot (nullptr before the first Publish). The returned
  /// pointer stays valid — and its synopsis immutable — for as long as the
  /// caller holds it, regardless of later publishes.
  std::shared_ptr<const Snapshot> Acquire() const { return Load(); }

  /// Version currently being served; 0 before the first Publish.
  uint64_t current_version() const {
    const auto snap = Load();
    return snap != nullptr ? snap->version : 0;
  }

  bool has_snapshot() const { return Load() != nullptr; }

  /// Answers the whole batch against ONE snapshot acquired up front and
  /// returns that snapshot's version, so concurrent publishes can never
  /// split a batch across versions. Returns 0 (and zero-fills `out`) if
  /// nothing has been published yet.
  uint64_t AnswerBatch(const QueryEngine& engine,
                       std::span<const QueryT> queries,
                       std::span<double> out) const {
    DPGRID_CHECK(queries.size() == out.size());
    const auto snap = Load();
    if (snap == nullptr) {
      for (double& v : out) v = 0.0;
      return 0;
    }
    engine.AnswerAll(*snap->synopsis, queries, out);
    return snap->version;
  }

 private:
  std::shared_ptr<const Snapshot> Load() const {
    std::lock_guard<std::mutex> lock(slot_mu_);
    return current_;
  }
  // Swaps under the lock. The previous snapshot leaves in the parameter
  // `next`, which outlives the lock guard, so it is released (possibly
  // freeing a whole synopsis) after the unlock.
  void Store(std::shared_ptr<const Snapshot> next) {
    std::lock_guard<std::mutex> lock(slot_mu_);
    current_.swap(next);
  }

  mutable std::mutex slot_mu_;
  std::shared_ptr<const Snapshot> current_;

  // Serializes writers so version auto-increment is race-free; readers
  // never take this lock.
  std::mutex publish_mu_;
};

/// Serving slot for 2-D synopses, fed by the QueryEngine's Rect batches.
using ServingSynopsis = BasicServingSynopsis<Synopsis, Rect>;

/// Serving slot for N-d synopses.
using ServingSynopsisNd = BasicServingSynopsis<SynopsisNd, BoxNd>;

}  // namespace dpgrid

#endif  // DPGRID_STORE_SERVING_H_
