// Parameterized invariants over all full-cover solvers and random instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>

#include "common/rng.hpp"
#include "setcover/baselines.hpp"
#include "setcover/exact.hpp"
#include "setcover/greedy.hpp"
#include "setcover/lazy_greedy.hpp"

namespace rnb {
namespace {

using Solver = std::function<CoverResult(const CoverInstance&)>;

struct SolverCase {
  std::string name;
  Solver solve;
};

// gtest would otherwise dump the param's raw bytes, heap pointers included,
// into every test name.
void PrintTo(const SolverCase& c, std::ostream* os) { *os << c.name; }

class CoverSolverProperty : public ::testing::TestWithParam<SolverCase> {
 protected:
  static CoverInstance random_instance(Xoshiro256& rng) {
    CoverInstance instance;
    instance.candidates.resize(1 + rng.below(40));
    for (auto& cand : instance.candidates) {
      const std::uint32_t repl = 1 + static_cast<std::uint32_t>(rng.below(4));
      while (cand.size() < repl) {
        const auto s = static_cast<ServerId>(rng.below(12));
        if (std::find(cand.begin(), cand.end(), s) == cand.end())
          cand.push_back(s);
      }
    }
    return instance;
  }
};

TEST_P(CoverSolverProperty, EveryItemAssignedToACandidate) {
  Xoshiro256 rng(31337);
  for (int trial = 0; trial < 100; ++trial) {
    const CoverInstance instance = random_instance(rng);
    const CoverResult r = GetParam().solve(instance);
    ASSERT_TRUE(r.valid_for(instance, instance.num_items()))
        << GetParam().name << " trial " << trial;
  }
}

TEST_P(CoverSolverProperty, ServersUsedHasNoDuplicates) {
  Xoshiro256 rng(777);
  for (int trial = 0; trial < 50; ++trial) {
    const CoverInstance instance = random_instance(rng);
    CoverResult r = GetParam().solve(instance);
    std::vector<ServerId> sorted = r.servers_used;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
  }
}

TEST_P(CoverSolverProperty, TransactionSizesSumToItemCount) {
  Xoshiro256 rng(555);
  for (int trial = 0; trial < 50; ++trial) {
    const CoverInstance instance = random_instance(rng);
    const CoverResult r = GetParam().solve(instance);
    const auto sizes = transaction_sizes(r, 12);
    std::size_t total = 0;
    for (const std::size_t s : sizes) total += s;
    EXPECT_EQ(total, instance.num_items());
  }
}

TEST_P(CoverSolverProperty, NeverUsesMoreTransactionsThanItems) {
  Xoshiro256 rng(111);
  for (int trial = 0; trial < 50; ++trial) {
    const CoverInstance instance = random_instance(rng);
    const CoverResult r = GetParam().solve(instance);
    EXPECT_LE(r.transactions(), instance.num_items());
    EXPECT_GE(r.transactions(), instance.num_items() == 0 ? 0u : 1u);
  }
}

// Cross-solver ordering over 500 independently seeded instances (kept small
// enough that the exact branch-and-bound solver stays fast): every solver's
// cover is valid, costs are sandwiched exact <= greedy <= trivial
// one-transaction-per-item, and lazy-greedy is cost-identical to greedy
// (same marginal-gain maximization, different evaluation schedule).
TEST(CoverSolverCrossProperty, FiveHundredRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 0xc0ffee);
    CoverInstance instance;
    instance.candidates.resize(1 + rng.below(12));
    for (auto& cand : instance.candidates) {
      const std::uint32_t repl = 1 + static_cast<std::uint32_t>(rng.below(3));
      while (cand.size() < repl) {
        const auto s = static_cast<ServerId>(rng.below(8));
        if (std::find(cand.begin(), cand.end(), s) == cand.end())
          cand.push_back(s);
      }
    }

    const CoverResult greedy = greedy_cover(instance);
    const CoverResult lazy = lazy_greedy_cover(instance);
    const auto exact = exact_cover(instance);
    ASSERT_TRUE(exact.has_value()) << "instance seed " << seed;

    const std::size_t all = instance.num_items();
    ASSERT_TRUE(greedy.valid_for(instance, all)) << "greedy, seed " << seed;
    ASSERT_TRUE(lazy.valid_for(instance, all)) << "lazy, seed " << seed;
    ASSERT_TRUE(exact->valid_for(instance, all)) << "exact, seed " << seed;

    EXPECT_LE(exact->transactions(), greedy.transactions())
        << "exact beat by greedy at seed " << seed;
    EXPECT_LE(greedy.transactions(), all)
        << "greedy beat by trivial per-item fetch at seed " << seed;
    EXPECT_EQ(greedy.transactions(), lazy.transactions())
        << "lazy-greedy diverged from greedy at seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, CoverSolverProperty,
    ::testing::Values(
        SolverCase{"greedy", [](const CoverInstance& i) { return greedy_cover(i); }},
        SolverCase{"lazy_greedy",
                   [](const CoverInstance& i) { return lazy_greedy_cover(i); }},
        SolverCase{"exact",
                   [](const CoverInstance& i) { return *exact_cover(i); }},
        SolverCase{"distinguished",
                   [](const CoverInstance& i) {
                     return distinguished_assignment(i);
                   }},
        SolverCase{"random_replica",
                   [](const CoverInstance& i) {
                     Xoshiro256 rng(1);
                     return random_replica_assignment(i, rng);
                   }}),
    [](const ::testing::TestParamInfo<SolverCase>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace rnb
