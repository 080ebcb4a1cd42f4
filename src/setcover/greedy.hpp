// Greedy set cover over bitsets — the paper's production bundling heuristic.
//
// Repeatedly pick the server whose replicas cover the most still-uncovered
// items; ties break toward the lowest server id. Deterministic tie-breaking
// is load-bearing: it is what makes "two requests with similar item sets use
// the same replicas for the shared items" (paper Fig. 7), which in turn is
// what lets overbooked cold replicas go LRU-cold and be evicted. Randomizing
// the tie-break would destroy the overbooking gains of Fig. 8.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "setcover/cover.hpp"

namespace rnb {

/// Full greedy cover: covers every item (requires each item to have at least
/// one candidate server).
CoverResult greedy_cover(const CoverInstance& instance);

/// Buffers the greedy loop reuses across calls: the servers the instance
/// touches (ascending), a ServerId -> row lookup (all unset between
/// calls), and one flat row of item bits per server. Not thread-safe; one
/// per client.
struct GreedyScratch {
  std::vector<ServerId> servers;
  std::vector<std::uint32_t> row_of;  // indexed by ServerId
  std::vector<std::uint64_t> holds;   // servers.size() rows of item bits
  std::vector<std::uint64_t> covered;
  std::vector<std::uint8_t> picked;
};

/// greedy_cover over a flat instance, written into `out`. Same picks, same
/// order, same assignment; allocates nothing once `scratch` and `out` have
/// grown to the largest instance seen.
void greedy_cover(const FlatCoverInstance& instance, CoverResult& out,
                  GreedyScratch& scratch);

/// Partial greedy cover: stop picking servers once at least `target` items
/// are covered. Uncovered items get kInvalidServer in the assignment.
CoverResult greedy_cover_partial(const CoverInstance& instance,
                                 std::size_t target);

/// greedy_cover_partial over a flat instance, written into `out`.
void greedy_cover_partial(const FlatCoverInstance& instance,
                          std::size_t target, CoverResult& out,
                          GreedyScratch& scratch);

/// Budgeted cover (maximum coverage): pick at most `max_transactions`
/// servers, maximizing the number of covered items. This is the dual LIMIT
/// form from the paper's Section III-F ("fetch as many items as possible
/// within X milliseconds" — a transaction budget is the simulator-level
/// stand-in for a deadline). Greedy is the classic (1 - 1/e) approximation
/// for maximum coverage. Items left uncovered get kInvalidServer.
CoverResult greedy_cover_budget(const CoverInstance& instance,
                                std::size_t max_transactions);

/// greedy_cover_budget over a flat instance, written into `out`.
void greedy_cover_budget(const FlatCoverInstance& instance,
                         std::size_t max_transactions, CoverResult& out,
                         GreedyScratch& scratch);

}  // namespace rnb
