//===- core/RapNode.h - Node of a range adaptive profile tree -*- C++ -*-===//
//
// Part of the RAP reproduction of "Profiling over Adaptive Ranges"
// (Mysore et al., CGO 2006). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A node of the RAP tree. Each node tracks a power-of-two aligned
/// range [lo(), hi()] of the event universe and a counter of the events
/// that matched this node as their smallest covering range (Sec 2.1 of
/// the paper). Children subdivide the parent range; after internal
/// merges the children may cover only part of the parent (Sec 3.3).
///
/// Storage is a slab arena (detail::NodeArena) rather than one heap
/// allocation per node: a subtree sum and a navigation word per node
/// (16 B, the paper's 128-bit node) in two vectors indexed by a 32-bit
/// node id, and the children of a split node occupy one contiguous
/// block of ids. The update path therefore descends by loading one
/// packed navigation word per level — no pointer chasing, and child
/// selection is a branchless shift-and-mask because every node range
/// is aligned to its own width. The arena stores no range at all: a
/// node's lo and width follow from the path that reaches it (a child's
/// lo is its parent's lo plus its slot shifted by the child width the
/// parent's navigation word holds). Nor does it store a node's own
/// count (its subtree sum less its live children's). RapNode is
/// therefore a value handle that carries the range it was reached with
/// next to the arena id it reads sums through.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_CORE_RAPNODE_H
#define RAP_CORE_RAPNODE_H

#include "support/BitUtils.h"

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace rap {

namespace detail {
struct NodeArena;
} // namespace detail

/// One range-counter of the profile tree: a value handle (arena, id,
/// range) into the owning tree's node arena. Copying it does not copy
/// the node; its counters are read live, its range is fixed at mint
/// time. A handle is valid until the tree next changes shape (an
/// update, merge or absorb may kill or recycle its slot).
class RapNode {
public:
  /// Internal: binds a handle to arena slot \p NodeIndex covering
  /// [\p NodeLo, \p NodeLo + 2^\p NodeWidthBits). User code receives
  /// handles from RapTree::root(), child() and findSmallestCover().
  RapNode(const detail::NodeArena *ArenaPtr, uint32_t NodeIndex,
          uint64_t NodeLo, unsigned NodeWidthBits)
      : Arena(ArenaPtr), Lo(NodeLo), Index(NodeIndex),
        WidthBits(NodeWidthBits) {}

  /// Lowest value covered by this node.
  uint64_t lo() const { return Lo; }

  /// Highest value covered by this node (inclusive).
  uint64_t hi() const { return Lo + lowBitMask(WidthBits); }

  /// log2 of the number of values this node covers.
  unsigned widthBits() const { return WidthBits; }

  /// Events recorded on this node's own counter (excludes descendants).
  uint64_t count() const;

  /// True if this node covers a single value and can never split.
  bool isUnitRange() const { return widthBits() == 0; }

  /// True if \p X lies within this node's range.
  bool contains(uint64_t X) const { return X >= lo() && X <= hi(); }

  /// True if the node currently has a child block (it may still have
  /// empty slots after internal merges).
  bool hasChildren() const;

  /// Number of child slots (0 if the node has never split or has been
  /// fully merged back into a leaf).
  unsigned numChildSlots() const;

  /// Child at \p Slot, or nullopt if that sub-range is currently
  /// merged into this node.
  std::optional<RapNode> child(unsigned Slot) const;

  /// Total weight of this node plus all descendants. This is the RAP
  /// estimate for the number of stream events in [lo(), hi()]; it is
  /// always a lower bound on the true count (Sec 4.3). O(1): a read of
  /// the arena's eagerly maintained subtree-sum column.
  uint64_t subtreeWeight() const;

  /// Number of nodes in this subtree including this node.
  uint64_t subtreeNodeCount() const;

private:
  const detail::NodeArena *Arena;
  uint64_t Lo;
  uint32_t Index;
  unsigned WidthBits;
};

namespace detail {

/// Slab storage for every node of one tree, structure-of-arrays.
///
/// Node ids are 32-bit indices into two parallel vectors. The children
/// of a split node are one contiguous id block, so locating the child
/// covering X needs only the parent's packed navigation word:
///
///   bits  0..31  first child id (InvalidIndex when the node is a leaf)
///   bits 32..39  child width in bits (the shift selecting the slot)
///   bits 40..45  log2 of the child slot count
///   bit  63      dead flag: this slot was merged back into its parent
///
/// Because a node's lo() is aligned to its width, the child slot for X
/// is (X >> childShift) & slotMask with no subtraction — the branchless
/// select of the hot descend loop. Freed child blocks (from batched
/// merges) are recycled through per-size free lists; a merged-back
/// child inside a still-live block is only flagged dead so a later
/// re-split revives it in place.
///
/// Sums is the subtree-sum column, and it defines the counters:
///
///   count(n) == Sums[n] - sum of Sums[c] over n's child slots c
///
/// where a dead slot holds 0, so subtreeWeight() is one load and a
/// range read only walks the two boundary paths. Every sum is exact:
/// RapTree admits no stream total past 2^64-1, so its plain adds
/// never wrap. RapTree::addPoint adds the event weight on every level
/// of its descent, and a merge fold only kills the child (zeroing its
/// slot), whose weight the parent's sum already holds, so the parent's
/// count rises by itself. Fresh and revived slots start at 0.
struct NodeArena {
  static constexpr uint32_t InvalidIndex = 0xffffffffu;
  static constexpr uint64_t DeadBit = uint64_t(1) << 63;
  static constexpr uint64_t LeafNav = InvalidIndex;
  static constexpr uint64_t DeadLeafNav = LeafNav | DeadBit;

  std::vector<uint64_t> Sums; ///< subtree weight per node (see above).
  std::vector<uint64_t> Navs; ///< packed navigation word per node.

  /// Heads of the recycled child-block lists, indexed by log2 of the
  /// block's slot count. A free block's first Sums word links to the
  /// next; 0 (the root, never in a block) ends a list.
  uint32_t FreeHeads[64] = {};

  static uint32_t navFirstChild(uint64_t Nav) {
    return static_cast<uint32_t>(Nav);
  }
  static unsigned navChildShift(uint64_t Nav) {
    return static_cast<unsigned>((Nav >> 32) & 0xff);
  }
  static unsigned navSlotLog2(uint64_t Nav) {
    return static_cast<unsigned>((Nav >> 40) & 0x3f);
  }
  static bool navIsDead(uint64_t Nav) { return (Nav & DeadBit) != 0; }
  static bool navIsLeaf(uint64_t Nav) {
    return navFirstChild(Nav) == InvalidIndex;
  }
  static uint64_t makeNav(uint32_t FirstChild, unsigned ChildShift,
                          unsigned SlotLog2) {
    return uint64_t(FirstChild) | (uint64_t(ChildShift) << 32) |
           (uint64_t(SlotLog2) << 40);
  }

  /// Calls \p F(Child, ChildLo, ChildWidth) for every live child of
  /// \p Node, in slot (ascending lo) order, where \p Lo is \p Node's
  /// lo: the child ranges follow from it and the navigation word.
  template <typename Fn>
  void forEachLiveChild(uint32_t Node, uint64_t Lo, Fn &&F) const {
    uint64_t Nav = Navs[Node];
    if (navIsLeaf(Nav))
      return;
    uint32_t First = navFirstChild(Nav);
    unsigned Shift = navChildShift(Nav);
    uint32_t NumSlots = uint32_t(1) << navSlotLog2(Nav);
    for (uint32_t Slot = 0; Slot != NumSlots; ++Slot)
      if (!navIsDead(Navs[First + Slot]))
        F(First + Slot, Lo + (static_cast<uint64_t>(Slot) << Shift), Shift);
  }

  /// Creates the root node (id 0). Its range, [0, 2^RangeBits), comes
  /// from the tree's config: no slot stores a range.
  void initRoot();

  /// Allocates a contiguous child block for \p Parent: 2^SlotLog2
  /// slots of width \p ChildBits, each initialized as a zero-weight
  /// leaf (dead when \p Dead, i.e. present-but-merged). Updates the
  /// parent's navigation word and returns the first child id.
  uint32_t allocChildren(uint32_t Parent, unsigned ChildBits,
                         unsigned SlotLog2, bool Dead);

  /// Returns a 2^SlotLog2-slot block to its free list. Allocates
  /// nothing, so it cannot fail inside a merge fold.
  void freeBlock(uint32_t FirstChild, unsigned SlotLog2) noexcept;

  /// Marks \p Node dead (its sum 0) and recycles its child blocks.
  void killSubtree(uint32_t Node) noexcept;

  /// \p Node's own count: a leaf's is its sum; an internal node's also
  /// reads its b contiguous child sums (a dead slot's is 0).
  uint64_t ownCount(uint32_t Node) const {
    uint64_t Own = Sums[Node], Nav = Navs[Node];
    if (!navIsLeaf(Nav))
      for (uint32_t C = navFirstChild(Nav), Slots = 1u << navSlotLog2(Nav);
           Slots != 0; ++C, --Slots)
        Own -= Sums[C];
    return Own;
  }

  uint64_t subtreeNodeCount(uint32_t Node) const;

  /// Bytes reserved by the slab vectors (capacity, not size).
  uint64_t slabBytes() const;

private:
  uint32_t allocBlock(unsigned SlotLog2);
  void freeDescendants(uint32_t Node) noexcept;
};

} // namespace detail

inline uint64_t RapNode::count() const { return Arena->ownCount(Index); }

inline bool RapNode::hasChildren() const {
  return !detail::NodeArena::navIsLeaf(Arena->Navs[Index]);
}

inline unsigned RapNode::numChildSlots() const {
  uint64_t Nav = Arena->Navs[Index];
  if (detail::NodeArena::navIsLeaf(Nav))
    return 0;
  return 1u << detail::NodeArena::navSlotLog2(Nav);
}

inline std::optional<RapNode> RapNode::child(unsigned Slot) const {
  uint64_t Nav = Arena->Navs[Index];
  assert(Slot < numChildSlots() && "child slot out of range");
  uint32_t Child = detail::NodeArena::navFirstChild(Nav) + Slot;
  if (detail::NodeArena::navIsDead(Arena->Navs[Child]))
    return std::nullopt; // Sub-range currently merged into this node.
  unsigned Shift = detail::NodeArena::navChildShift(Nav);
  return RapNode(Arena, Child, Lo + (static_cast<uint64_t>(Slot) << Shift),
                 Shift);
}

inline uint64_t RapNode::subtreeWeight() const { return Arena->Sums[Index]; }

inline uint64_t RapNode::subtreeNodeCount() const {
  return Arena->subtreeNodeCount(Index);
}

} // namespace rap

#endif // RAP_CORE_RAPNODE_H
