#include "core/query.h"

#include <algorithm>

#include "util/macros.h"

namespace dppr {

PointEstimate QueryVertex(const PprState& state, double eps, VertexId v) {
  DPPR_CHECK(v >= 0 && v < state.NumVertices());
  PointEstimate est;
  est.value = state.p[static_cast<size_t>(v)];
  est.lower = std::max(est.value - eps, 0.0);
  est.upper = est.value + eps;
  return est;
}

GuaranteedTopK TopKWithGuarantee(const std::vector<double>& p, double eps,
                                 int k) {
  DPPR_CHECK(k >= 1);
  // A k past the vector ranks all of it; clamped first so `k + 1` cannot
  // overflow.
  k = static_cast<int>(std::min(static_cast<size_t>(k), p.size()));
  GuaranteedTopK result;
  // One extra entry: the boundary estimate right below the cut.
  auto extended = TopK(p, k + 1);
  const double boundary =
      extended.size() > static_cast<size_t>(k) ? extended.back().score : 0.0;
  if (extended.size() > static_cast<size_t>(k)) extended.pop_back();
  result.entries = std::move(extended);

  // pi(entry) >= p - eps > boundary + eps >= pi(outside): certain member.
  for (const ScoredVertex& entry : result.entries) {
    if (entry.score > boundary + 2 * eps) {
      ++result.certain_members;
    } else {
      break;  // scores descend; certainty is a prefix property
    }
  }
  return result;
}

}  // namespace dppr
