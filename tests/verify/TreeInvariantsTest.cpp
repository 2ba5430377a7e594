//===- tests/verify/TreeInvariantsTest.cpp -------------------------------===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//

#include "verify/TreeInvariants.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rap;

namespace {

RapConfig smallConfig() {
  RapConfig Config;
  Config.RangeBits = 16;
  Config.BranchFactor = 4;
  Config.Epsilon = 0.05;
  return Config;
}

using NodeSet = std::vector<std::tuple<uint64_t, uint8_t, uint64_t>>;

bool hasViolation(const std::vector<InvariantViolation> &Vs,
                  const std::string &Invariant) {
  for (const InvariantViolation &V : Vs)
    if (V.Invariant == Invariant)
      return true;
  return false;
}

TEST(TreeInvariants, EmptyTreeIsClean) {
  RapTree Tree(smallConfig());
  EXPECT_TRUE(TreeInvariants::audit(Tree).empty());
}

TEST(TreeInvariants, GrownTreeIsClean) {
  RapTree Tree(smallConfig());
  Rng R(7);
  for (int I = 0; I != 50000; ++I)
    Tree.addPoint(R.next() & 0xffff);
  std::vector<InvariantViolation> Vs = TreeInvariants::audit(Tree);
  EXPECT_TRUE(Vs.empty()) << TreeInvariants::render(Vs);
}

TEST(TreeInvariants, SkewedTreeIsClean) {
  RapTree Tree(smallConfig());
  for (int I = 0; I != 50000; ++I)
    Tree.addPoint(I % 8);
  std::vector<InvariantViolation> Vs = TreeInvariants::audit(Tree);
  EXPECT_TRUE(Vs.empty()) << TreeInvariants::render(Vs);
}

TEST(TreeInvariants, AuditNodeSetAcceptsRealSnapshot) {
  RapTree Tree(smallConfig());
  Rng R(11);
  for (int I = 0; I != 20000; ++I)
    Tree.addPoint(R.next() & 0xffff);

  NodeSet Nodes;
  // Rebuild the triple list from the tree itself, deliberately out of
  // order — auditNodeSet must sort to preorder internally.
  struct Walker {
    NodeSet &Out;
    void walk(const RapNode &Node) {
      Out.emplace_back(Node.lo(), uint8_t(Node.widthBits()), Node.count());
      for (unsigned Slot = 0; Slot != Node.numChildSlots(); ++Slot)
        if (std::optional<RapNode> Child = Node.child(Slot))
          walk(*Child);
    }
  };
  Walker W{Nodes};
  W.walk(Tree.root());
  std::reverse(Nodes.begin(), Nodes.end());

  std::vector<InvariantViolation> Vs =
      TreeInvariants::auditNodeSet(smallConfig(), Nodes, Tree.numEvents());
  EXPECT_TRUE(Vs.empty()) << TreeInvariants::render(Vs);
}

TEST(TreeInvariants, AuditNodeSetRejectsMissingRoot) {
  NodeSet Nodes = {{0, 8, 10}}; // 8-bit node cannot be the 16-bit root
  std::vector<InvariantViolation> Vs =
      TreeInvariants::auditNodeSet(smallConfig(), Nodes, 10);
  EXPECT_TRUE(hasViolation(Vs, "root-universe"))
      << TreeInvariants::render(Vs);
}

TEST(TreeInvariants, AuditNodeSetRejectsMisalignedNode) {
  NodeSet Nodes = {{0, 16, 5}, {3, 14, 5}}; // lo=3 not 14-bit aligned
  std::vector<InvariantViolation> Vs =
      TreeInvariants::auditNodeSet(smallConfig(), Nodes, 10);
  EXPECT_TRUE(hasViolation(Vs, "range-alignment"))
      << TreeInvariants::render(Vs);
}

TEST(TreeInvariants, AuditNodeSetRejectsBadWidthLadder) {
  // b=4 consumes 2 bits per level: a 13-bit child of a 16-bit root is
  // not on the ladder {16, 14, 12, ...}.
  NodeSet Nodes = {{0, 16, 5}, {0, 13, 5}};
  std::vector<InvariantViolation> Vs =
      TreeInvariants::auditNodeSet(smallConfig(), Nodes, 10);
  EXPECT_TRUE(hasViolation(Vs, "child-geometry"))
      << TreeInvariants::render(Vs);
}

TEST(TreeInvariants, AuditNodeSetRejectsDuplicateNode) {
  NodeSet Nodes = {{0, 16, 5}, {0, 14, 3}, {0, 14, 2}};
  std::vector<InvariantViolation> Vs =
      TreeInvariants::auditNodeSet(smallConfig(), Nodes, 10);
  EXPECT_TRUE(hasViolation(Vs, "child-geometry"))
      << TreeInvariants::render(Vs);
}

TEST(TreeInvariants, AuditNodeSetRejectsCountMismatch) {
  NodeSet Nodes = {{0, 16, 5}}; // 5 counted, 9 claimed
  std::vector<InvariantViolation> Vs =
      TreeInvariants::auditNodeSet(smallConfig(), Nodes, 9);
  EXPECT_TRUE(hasViolation(Vs, "conservation"))
      << TreeInvariants::render(Vs);
}

TEST(OnlineAuditor, CleanStreamHasNoViolations) {
  RapConfig Config = smallConfig();
  RapTree Tree(Config);
  OnlineAuditor Auditor(Tree);
  Rng R(23);
  for (int I = 0; I != 30000; ++I)
    Auditor.addPoint(R.next() & 0xffff, 1 + (R.next() % 3));
  EXPECT_TRUE(Auditor.violations().empty())
      << TreeInvariants::render(Auditor.violations());
  EXPECT_TRUE(TreeInvariants::audit(Tree).empty());
}

TEST(OnlineAuditor, ZeroWeightEventsAreAudited) {
  RapTree Tree(smallConfig());
  OnlineAuditor Auditor(Tree);
  for (int I = 0; I != 1000; ++I)
    Auditor.addPoint(uint64_t(I) & 0xffff, I % 2);
  EXPECT_EQ(Tree.numEvents(), 500u);
  EXPECT_TRUE(Auditor.violations().empty())
      << TreeInvariants::render(Auditor.violations());
}

TEST(OnlineAuditor, MergesDisabledStreamIsClean) {
  RapConfig Config = smallConfig();
  Config.EnableMerges = false;
  RapTree Tree(Config);
  OnlineAuditor Auditor(Tree);
  Rng R(31);
  for (int I = 0; I != 20000; ++I)
    Auditor.addPoint(R.next() & 0xffff);
  EXPECT_TRUE(Auditor.violations().empty())
      << TreeInvariants::render(Auditor.violations());
}

} // namespace
