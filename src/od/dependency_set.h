#ifndef OCDD_OD_DEPENDENCY_SET_H_
#define OCDD_OD_DEPENDENCY_SET_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "od/dependency.h"

namespace ocdd::od {

/// Sorts and removes duplicates; the canonical way results are finalized so
/// that every algorithm reports dependencies in a deterministic order.
template <typename T>
void SortUnique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// Accumulates the dependencies emitted during a discovery run.
///
/// Thread-compatible (not thread-safe): the parallel drivers give each
/// worker its own store and merge at barriers.
class DependencyStore {
 public:
  void AddOd(OrderDependency od) { ods_.push_back(std::move(od)); }
  void AddOcd(OrderCompatibility ocd) {
    ocds_.push_back(std::move(ocd).Canonical());
  }
  void AddFd(FunctionalDependency fd) { fds_.push_back(std::move(fd)); }
  void AddCanonicalOd(CanonicalOd od) { canonical_.push_back(std::move(od)); }

  /// Merges another store's contents into this one.
  void MergeFrom(DependencyStore&& other);

  /// Deduplicates and sorts every collection. Call once, after discovery.
  void Finalize();

  const std::vector<OrderDependency>& ods() const { return ods_; }
  const std::vector<OrderCompatibility>& ocds() const { return ocds_; }
  const std::vector<FunctionalDependency>& fds() const { return fds_; }
  const std::vector<CanonicalOd>& canonical_ods() const { return canonical_; }

  /// Moves the ODs or OCDs out, leaving that collection empty.
  std::vector<OrderDependency> TakeOds() { return std::exchange(ods_, {}); }
  std::vector<OrderCompatibility> TakeOcds() {
    return std::exchange(ocds_, {});
  }

  std::size_t TotalCount() const {
    return ods_.size() + ocds_.size() + fds_.size() + canonical_.size();
  }

 private:
  std::vector<OrderDependency> ods_;
  std::vector<OrderCompatibility> ocds_;
  std::vector<FunctionalDependency> fds_;
  std::vector<CanonicalOd> canonical_;
};

}  // namespace ocdd::od

#endif  // OCDD_OD_DEPENDENCY_SET_H_
