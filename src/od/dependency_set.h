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

}  // namespace ocdd::od

#endif  // OCDD_OD_DEPENDENCY_SET_H_
