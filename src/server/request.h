// Request — the one typed envelope a single-answer verb travels in, from
// the router through ReplicaSet, ShardBackend and the wire to PprService,
// and the one table that says how each such verb is routed and served.
//
// The paper's batch push keeps every source's (p, r) state independent,
// and the estimator keeps every target's; that independence is what lets
// the fleet shard by source or target and replicate each slot. So a verb
// differs from another only in the id that places it, in whether one
// replica answers it or every replica applies it, and in whether a
// standby may answer it. Those three facts are the rows of kVerbRules;
// every layer reads them there instead of restating them in a method per
// verb. Verbs with other shapes (multi-source, extract, inject, stats,
// list sources, list targets) keep their own paths.

#ifndef DPPR_SERVER_REQUEST_H_
#define DPPR_SERVER_REQUEST_H_

#include <cstdint>

#include "graph/types.h"
#include "util/macros.h"

namespace dppr {

/// RPC verbs. On the wire (net/wire.h) requests and responses carry the
/// same verb; the response flag tells them apart.
enum class Verb : uint8_t {
  kQueryVertex = 1,    ///< p[v] +- eps for one source
  kTopK = 2,           ///< certified top-k for one source
  kMultiSource = 3,    ///< p[v] for several sources, one round trip
  kApplyUpdates = 4,   ///< edge-update batch (the replicated feed)
  kAddSource = 5,
  kRemoveSource = 6,
  kQuiesce = 7,        ///< FIFO maintenance barrier
  kExtractSource = 8,  ///< lift a source out; response carries the blob
  kInjectSource = 9,   ///< install a migration blob
  kStats = 10,         ///< health + metrics (+ optional latency samples)
  kListSources = 11,   ///< the shard's current source set
  // Estimator verbs (new in frame version 4). Reverse-family reads route
  // by TARGET, not source.
  kQueryPair = 12,     ///< pi_s(t) +- eps by reverse push
  kReverseTopK = 13,   ///< sources with the highest PPR into one target
  kHybridQuery = 14,   ///< pair query + unbiased walk correction
  kAddTarget = 15,     ///< register a reverse-push target
  kRemoveTarget = 16,
  kListTargets = 17,   ///< the shard's current target set
};

/// Which id picks the ring slot that serves a verb.
enum class RouteBy : uint8_t {
  kSource,     ///< Request::source
  kTarget,     ///< Request::target
  kEverySlot,  ///< every slot applies it (the replicated feed)
};

/// How a slot serves a verb.
enum class VerbKind : uint8_t {
  kRead,   ///< one replica answers: Read(), future<QueryResponse>
  kFeed,   ///< every replica applies; fanned out on a thread of its own
  kAdmin,  ///< every replica applies; fanned out when the caller waits
};

struct VerbRule {
  Verb verb;
  RouteBy route;
  VerbKind kind;
  /// A standby may answer, under ReadPolicy and the per-source staleness
  /// floor. Estimator epochs count the estimator's own feed, which that
  /// floor cannot compare, so estimator reads stay on the primary.
  bool standby_reads;
};

inline constexpr VerbRule kVerbRules[] = {
    {Verb::kQueryVertex, RouteBy::kSource, VerbKind::kRead, true},
    {Verb::kTopK, RouteBy::kSource, VerbKind::kRead, true},
    {Verb::kQueryPair, RouteBy::kTarget, VerbKind::kRead, false},
    {Verb::kHybridQuery, RouteBy::kTarget, VerbKind::kRead, false},
    {Verb::kReverseTopK, RouteBy::kTarget, VerbKind::kRead, false},
    {Verb::kApplyUpdates, RouteBy::kEverySlot, VerbKind::kFeed, false},
    {Verb::kQuiesce, RouteBy::kEverySlot, VerbKind::kFeed, false},
    {Verb::kAddSource, RouteBy::kSource, VerbKind::kAdmin, false},
    {Verb::kRemoveSource, RouteBy::kSource, VerbKind::kAdmin, false},
    {Verb::kAddTarget, RouteBy::kTarget, VerbKind::kAdmin, false},
    {Verb::kRemoveTarget, RouteBy::kTarget, VerbKind::kAdmin, false},
};

/// The row of `verb`, or nullptr for a verb outside the envelope.
constexpr const VerbRule* FindVerbRule(Verb verb) {
  for (const VerbRule& rule : kVerbRules) {
    if (rule.verb == verb) return &rule;
  }
  return nullptr;
}

/// The row of an enveloped verb (anything else is a programming error).
inline const VerbRule& RuleOf(Verb verb) {
  const VerbRule* rule = FindVerbRule(verb);
  DPPR_CHECK_MSG(rule != nullptr, "verb outside the request envelope");
  return *rule;
}

constexpr bool IsRead(Verb verb) {
  const VerbRule* rule = FindVerbRule(verb);
  return rule != nullptr && rule->kind == VerbKind::kRead;
}

/// One request of an enveloped verb. Fields a verb does not use keep
/// their defaults; the target of the estimator verbs (kAddTarget and
/// kRemoveTarget included) is `target`.
struct Request {
  Verb verb = Verb::kQueryVertex;
  VertexId source = kInvalidVertex;
  VertexId vertex = kInvalidVertex;
  VertexId target = kInvalidVertex;
  int k = 0;
  /// Relative deadline of a read; 0 = the service's default.
  int64_t deadline_ms = 0;
  UpdateBatch batch = {};  ///< kApplyUpdates
};

/// The id that places `request` on the ring (RouteBy::kEverySlot verbs
/// have none and are fanned out instead).
inline VertexId RoutingKey(const Request& request) {
  return RuleOf(request.verb).route == RouteBy::kTarget ? request.target
                                                        : request.source;
}

}  // namespace dppr

#endif  // DPPR_SERVER_REQUEST_H_
