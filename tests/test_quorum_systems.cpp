#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "quorum/crumbling_wall.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/projective_plane.hpp"
#include "quorum/quorum_analysis.hpp"
#include "quorum/quorum_system.hpp"
#include "quorum/tree_quorum.hpp"

namespace dcnt {
namespace {

std::vector<std::unique_ptr<QuorumSystem>> all_systems(std::int64_t n) {
  std::vector<std::unique_ptr<QuorumSystem>> systems;
  systems.push_back(std::make_unique<MajorityQuorum>(n));
  systems.push_back(std::make_unique<GridQuorum>(n));
  systems.push_back(std::make_unique<TreeQuorum>(n));
  systems.push_back(CrumblingWall::triangle(n));
  systems.push_back(std::make_unique<SingletonQuorum>(n, 0));
  return systems;
}

class QuorumSystemTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(QuorumSystemTest, QuorumsAreValidSortedSubsets) {
  for (const auto& system : all_systems(GetParam())) {
    for (std::size_t i = 0; i < system->num_quorums(); ++i) {
      const auto q = system->quorum(i);
      ASSERT_FALSE(q.empty()) << system->name();
      for (std::size_t j = 0; j < q.size(); ++j) {
        EXPECT_GE(q[j], 0);
        EXPECT_LT(q[j], system->universe_size());
        if (j > 0) {
          EXPECT_LT(q[j - 1], q[j]) << system->name();
        }
      }
    }
  }
}

TEST_P(QuorumSystemTest, PairwiseIntersectionHolds) {
  // The precondition of the paper's Hot Spot Lemma, checked
  // exhaustively for every construction.
  Rng rng(1);
  for (const auto& system : all_systems(GetParam())) {
    const auto report =
        check_pairwise_intersection(*system, /*exhaustive_limit=*/256,
                                    /*samples=*/20000, rng);
    EXPECT_TRUE(report.all_intersect)
        << system->name() << " quorums " << report.bad_a << " and "
        << report.bad_b << " are disjoint";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuorumSystemTest,
                         ::testing::Values(1, 2, 3, 7, 16, 33, 100));

TEST(MajorityQuorum, SizeIsFloorHalfPlusOne) {
  MajorityQuorum m(10);
  EXPECT_EQ(m.quorum_size(), 6);
  EXPECT_EQ(m.quorum(0).size(), 6u);
  MajorityQuorum odd(7);
  EXPECT_EQ(odd.quorum_size(), 4);
}

TEST(MajorityQuorum, RotationBalancesLoadPerfectly) {
  MajorityQuorum m(9);
  const auto load = rotation_load(m, 9);
  for (const auto hits : load.hits) {
    EXPECT_EQ(hits, m.quorum_size());
  }
}

TEST(GridQuorum, SizeIsOrderSqrtN) {
  GridQuorum g(100);
  EXPECT_EQ(g.rows(), 10);
  EXPECT_EQ(g.cols(), 10);
  // Full row (10) + 9 representatives = 19.
  EXPECT_EQ(g.quorum(0).size(), 19u);
}

TEST(GridQuorum, RaggedGridStillIntersects) {
  Rng rng(2);
  for (std::int64_t n : {5, 11, 13, 26, 50, 97}) {
    GridQuorum g(n);
    const auto report = check_pairwise_intersection(g, 256, 5000, rng);
    EXPECT_TRUE(report.all_intersect) << "n=" << n;
  }
}

TEST(GridQuorum, LoadBeatsmajority) {
  const std::int64_t n = 100;
  const auto grid_load = rotation_load(GridQuorum(n), n);
  const auto maj_load = rotation_load(MajorityQuorum(n), n);
  EXPECT_LT(grid_load.max_load, maj_load.max_load);
}

TEST(TreeQuorum, QuorumsAreSmall) {
  TreeQuorum t(127);  // full binary tree of depth 6
  double total = 0;
  for (std::size_t i = 0; i < t.num_quorums(); ++i) {
    total += static_cast<double>(t.quorum(i).size());
  }
  // Root+path quorums are ~depth-sized; the all-subtree splits larger.
  EXPECT_LT(total / static_cast<double>(t.num_quorums()), 64.0);
}

TEST(CrumblingWall, TriangleRowsSumToN) {
  const auto wall = CrumblingWall::triangle(20);
  EXPECT_EQ(wall->universe_size(), 20);
  EXPECT_GE(wall->num_rows(), 4u);
}

TEST(CrumblingWall, ExplicitWidthsValidated) {
  const CrumblingWall wall(6, {1, 2, 3});
  Rng rng(3);
  const auto report = check_pairwise_intersection(wall, 256, 1000, rng);
  EXPECT_TRUE(report.all_intersect);
}

TEST(CrumblingWall, UniformConstruction) {
  const auto wall = CrumblingWall::uniform(10, 3);
  EXPECT_EQ(wall->num_rows(), 4u);  // 3+3+3+1
  Rng rng(4);
  EXPECT_TRUE(check_pairwise_intersection(*wall, 256, 1000, rng).all_intersect);
}

TEST(SingletonQuorum, MaximallyUnbalanced) {
  SingletonQuorum s(10, 0);
  const auto load = rotation_load(s, 100);
  EXPECT_DOUBLE_EQ(load.max_load, 1.0);  // every op touches the holder
  EXPECT_EQ(load.hits[0], 100);
}

class ProjectivePlaneTest : public ::testing::TestWithParam<int> {};

TEST_P(ProjectivePlaneTest, AnyTwoLinesMeetInExactlyOnePoint) {
  const ProjectivePlaneQuorum fpp(GetParam());
  const int q = GetParam();
  EXPECT_EQ(fpp.universe_size(), static_cast<std::int64_t>(q) * q + q + 1);
  EXPECT_EQ(fpp.num_quorums(), static_cast<std::size_t>(fpp.universe_size()));
  for (std::size_t i = 0; i < fpp.num_quorums(); ++i) {
    const auto a = fpp.quorum(i);
    EXPECT_EQ(a.size(), static_cast<std::size_t>(q + 1));
    for (std::size_t j = i + 1; j < fpp.num_quorums(); ++j) {
      const auto b = fpp.quorum(j);
      int common = 0;
      std::size_t x = 0;
      std::size_t y = 0;
      while (x < a.size() && y < b.size()) {
        if (a[x] == b[y]) {
          ++common;
          ++x;
          ++y;
        } else if (a[x] < b[y]) {
          ++x;
        } else {
          ++y;
        }
      }
      EXPECT_EQ(common, 1) << "lines " << i << " and " << j;
    }
  }
}

TEST_P(ProjectivePlaneTest, EveryPointLiesOnExactlyQPlusOneLines) {
  const ProjectivePlaneQuorum fpp(GetParam());
  const int q = GetParam();
  std::vector<int> incidence(static_cast<std::size_t>(fpp.universe_size()), 0);
  for (std::size_t i = 0; i < fpp.num_quorums(); ++i) {
    for (const ProcessorId p : fpp.quorum(i)) {
      ++incidence[static_cast<std::size_t>(p)];
    }
  }
  for (const int count : incidence) {
    EXPECT_EQ(count, q + 1);  // duality: the plane is self-dual
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, ProjectivePlaneTest,
                         ::testing::Values(2, 3, 5, 7));

TEST(ProjectivePlane, PerfectLoadBalanceUnderFullRotation) {
  const ProjectivePlaneQuorum fpp(5);  // n = 31
  const auto load = rotation_load(fpp, static_cast<std::int64_t>(fpp.num_quorums()));
  // Self-duality: across all 31 lines, every point is hit exactly 6
  // times -> load = (q+1)/n ~ 1/sqrt(n), the theoretical optimum.
  for (const auto hits : load.hits) {
    EXPECT_EQ(hits, 6);
  }
  EXPECT_NEAR(load.max_load, 6.0 / 31.0, 1e-9);
}

TEST(ProjectivePlane, SupportedSizesAndOrderLookup) {
  const auto sizes = ProjectivePlaneQuorum::supported_sizes(150);
  EXPECT_EQ(sizes, (std::vector<std::int64_t>{7, 13, 31, 57, 133}));
  EXPECT_EQ(ProjectivePlaneQuorum::order_for(31), 5);
  EXPECT_EQ(ProjectivePlaneQuorum::order_for(56), 5);
  EXPECT_EQ(ProjectivePlaneQuorum::order_for(133), 11);
  EXPECT_EQ(ProjectivePlaneQuorum::order_for(6), 0);
}

TEST(ProjectivePlane, BeatsGridLoadAtMatchedSize) {
  const ProjectivePlaneQuorum fpp(7);  // n = 57
  const GridQuorum grid(57);
  const auto fpp_load = rotation_load(fpp, 570);
  const auto grid_load = rotation_load(grid, 570);
  EXPECT_LT(fpp_load.mean_quorum_size, grid_load.mean_quorum_size);
  EXPECT_LE(fpp_load.max_load, grid_load.max_load);
}

TEST(QuorumAnalysis, DetectsNonIntersectingFamily) {
  // A deliberately broken "system" to prove the checker can fail.
  class Broken final : public QuorumSystem {
   public:
    std::int64_t universe_size() const override { return 4; }
    std::size_t num_quorums() const override { return 2; }
    std::vector<ProcessorId> quorum(std::size_t index) const override {
      return index == 0 ? std::vector<ProcessorId>{0, 1}
                        : std::vector<ProcessorId>{2, 3};
    }
    std::string name() const override { return "broken"; }
    std::unique_ptr<QuorumSystem> clone() const override {
      return std::make_unique<Broken>(*this);
    }
  };
  Rng rng(5);
  const auto report = check_pairwise_intersection(Broken(), 256, 100, rng);
  EXPECT_FALSE(report.all_intersect);
}

TEST(QuorumAnalysis, RotationLoadAccounting) {
  MajorityQuorum m(4);  // quorum size 3
  const auto load = rotation_load(m, 4);
  EXPECT_DOUBLE_EQ(load.mean_quorum_size, 3.0);
  EXPECT_EQ(load.max_quorum_size, 3);
  std::int64_t total = 0;
  for (const auto h : load.hits) total += h;
  EXPECT_EQ(total, 12);
}

}  // namespace
}  // namespace dcnt
