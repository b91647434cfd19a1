#ifndef CLOUDJOIN_INDEX_STR_TREE_H_
#define CLOUDJOIN_INDEX_STR_TREE_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "geom/envelope.h"

namespace cloudjoin::index {

/// Sort-Tile-Recursive packed R-tree over (envelope, item-id) pairs.
///
/// This is the index both systems in the paper build on the broadcast right
/// side of a spatial join (JTS `STRtree` in SpatialSpark, the in-memory
/// R-tree in ISP-MC). Bulk-loaded once; the engines probe the
/// PackedStrTree copied from it, so this class is the STR builder plus
/// VisitQuery, the reference walk.
///
/// Node layout is a flat array built leaves-first; child links are index
/// ranges, so queries touch contiguous memory.
class StrTree {
 public:
  /// An indexed entry: the item's MBB plus a caller-supplied id (usually the
  /// row index of the right-side table).
  struct Entry {
    geom::Envelope envelope;
    int64_t id = 0;
  };

  /// One flat-array node. Public so layout passes (PackedStrTree) can
  /// mirror the exact structure — and therefore the exact traversal order —
  /// of a built tree.
  struct Node {
    geom::Envelope envelope;
    // For internal nodes: [first_child, first_child + num_children) in
    // nodes(). For leaves: [first_child, first_child + num_children) in
    // entries().
    int32_t first_child = 0;
    int32_t num_children = 0;
    bool is_leaf = true;
  };

  /// Builds the tree over `entries` with the given node capacity (JTS
  /// default is 10).
  explicit StrTree(std::vector<Entry> entries, int node_capacity = 10);

  StrTree(const StrTree&) = delete;
  StrTree& operator=(const StrTree&) = delete;
  StrTree(StrTree&&) = default;
  StrTree& operator=(StrTree&&) = default;

  /// Invokes `visit(id)` for every entry whose envelope intersects `query`.
  ///
  /// The reference walk: PackedStrTree replays its stack discipline, so
  /// tests and benches compare the packed layout's emit order against it.
  template <typename Visitor>
  void VisitQuery(const geom::Envelope& query, Visitor&& visit) const {
    if (root_ < 0 || !query.Intersects(bounds_)) return;
    // Explicit stack: recursion-free for deep trees and tight inner loop.
    int32_t stack[kMaxStackDepth];
    int depth = 0;
    stack[depth++] = root_;
    while (depth > 0) {
      const Node& node = nodes_[stack[--depth]];
      if (!node.envelope.Intersects(query)) continue;
      if (node.is_leaf) {
        for (int32_t i = 0; i < node.num_children; ++i) {
          const Entry& e = entries_[node.first_child + i];
          if (e.envelope.Intersects(query)) visit(e.id);
        }
      } else {
        for (int32_t i = 0; i < node.num_children; ++i) {
          CLOUDJOIN_DCHECK(depth < kMaxStackDepth);
          stack[depth++] = node.first_child + i;
        }
      }
    }
  }

  int64_t num_entries() const { return num_entries_; }
  int height() const { return height_; }

  /// Structure introspection for layout passes: the STR-permuted entries,
  /// the level-ordered (leaves-first) node array, and the root's index in
  /// it (-1 when empty).
  const std::vector<Entry>& entries() const { return entries_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  int32_t root() const { return root_; }

  /// Rough memory footprint in bytes (used to model broadcast cost).
  int64_t MemoryBytes() const;

  /// Envelope of everything in the tree.
  const geom::Envelope& bounds() const { return bounds_; }

 private:
  /// Traversal stack bound: capacity >= 2 gives height <= log2(2^31), and
  /// each level pushes at most node_capacity entries.
  static constexpr int kMaxStackDepth = 256;

  /// Packs `level` (indices into nodes_ or entries_) into parent nodes;
  /// returns the indices of the new level's nodes.
  std::vector<int32_t> BuildLevel(const std::vector<int32_t>& level,
                                  bool leaves);

  std::vector<Entry> entries_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
  int node_capacity_;
  int64_t num_entries_ = 0;
  int height_ = 0;
  geom::Envelope bounds_;
};

}  // namespace cloudjoin::index

#endif  // CLOUDJOIN_INDEX_STR_TREE_H_
