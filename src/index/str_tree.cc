#include "index/str_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "geom/point.h"

namespace cloudjoin::index {

namespace {

/// Orders `order` (indices into `centers`) by the Sort-Tile-Recursive rule:
/// sort by center-x, cut into vertical slices of `slice_entries`, sort each
/// slice by center-y.
void StrOrder(const std::vector<geom::Point>& centers, int node_capacity,
              std::vector<int32_t>* order) {
  const int64_t n = static_cast<int64_t>(order->size());
  if (n <= 1) return;
  std::sort(order->begin(), order->end(), [&](int32_t a, int32_t b) {
    return centers[a].x < centers[b].x;
  });
  const int64_t num_nodes =
      (n + node_capacity - 1) / node_capacity;
  const int64_t num_slices = static_cast<int64_t>(
      std::ceil(std::sqrt(static_cast<double>(num_nodes))));
  const int64_t slice_entries = num_slices * node_capacity;
  for (int64_t start = 0; start < n; start += slice_entries) {
    int64_t end = std::min(n, start + slice_entries);
    std::sort(order->begin() + start, order->begin() + end,
              [&](int32_t a, int32_t b) {
                return centers[a].y < centers[b].y;
              });
  }
}

}  // namespace

StrTree::StrTree(std::vector<Entry> entries, int node_capacity)
    : entries_(std::move(entries)), node_capacity_(node_capacity) {
  CLOUDJOIN_CHECK(node_capacity_ >= 2);
  num_entries_ = static_cast<int64_t>(entries_.size());
  for (const Entry& e : entries_) bounds_.ExpandToInclude(e.envelope);
  if (entries_.empty()) return;

  // Permute the entries into STR order so each leaf covers a contiguous run.
  {
    std::vector<geom::Point> centers(entries_.size());
    std::vector<int32_t> order(entries_.size());
    std::iota(order.begin(), order.end(), 0);
    for (size_t i = 0; i < entries_.size(); ++i) {
      centers[i] = entries_[i].envelope.Center();
    }
    StrOrder(centers, node_capacity_, &order);
    std::vector<Entry> permuted;
    permuted.reserve(entries_.size());
    for (int32_t i : order) permuted.push_back(std::move(entries_[i]));
    entries_ = std::move(permuted);
  }

  // Build levels bottom-up into temporary per-level vectors.
  std::vector<std::vector<Node>> levels;
  {
    std::vector<Node> leaves;
    for (int64_t start = 0; start < num_entries_; start += node_capacity_) {
      int64_t end = std::min(num_entries_,
                             start + static_cast<int64_t>(node_capacity_));
      Node node;
      node.is_leaf = true;
      node.first_child = static_cast<int32_t>(start);
      node.num_children = static_cast<int32_t>(end - start);
      for (int64_t i = start; i < end; ++i) {
        node.envelope.ExpandToInclude(entries_[i].envelope);
      }
      leaves.push_back(node);
    }
    levels.push_back(std::move(leaves));
  }
  while (levels.back().size() > 1) {
    std::vector<Node>& prev = levels.back();
    // STR-permute the previous level so parents cover contiguous runs.
    std::vector<geom::Point> centers(prev.size());
    std::vector<int32_t> order(prev.size());
    std::iota(order.begin(), order.end(), 0);
    for (size_t i = 0; i < prev.size(); ++i) {
      centers[i] = prev[i].envelope.Center();
    }
    StrOrder(centers, node_capacity_, &order);
    std::vector<Node> permuted;
    permuted.reserve(prev.size());
    for (int32_t i : order) permuted.push_back(prev[i]);
    prev = std::move(permuted);

    std::vector<Node> parents;
    const int64_t m = static_cast<int64_t>(prev.size());
    for (int64_t start = 0; start < m; start += node_capacity_) {
      int64_t end = std::min(m, start + static_cast<int64_t>(node_capacity_));
      Node node;
      node.is_leaf = false;
      node.first_child = static_cast<int32_t>(start);  // within-level index
      node.num_children = static_cast<int32_t>(end - start);
      for (int64_t i = start; i < end; ++i) {
        node.envelope.ExpandToInclude(prev[i].envelope);
      }
      parents.push_back(node);
    }
    levels.push_back(std::move(parents));
  }

  // Flatten: nodes_ = level0 ++ level1 ++ ...; internal first_child indices
  // shift by the starting offset of the previous (child) level.
  height_ = static_cast<int>(levels.size());
  std::vector<int32_t> level_offset(levels.size());
  int32_t offset = 0;
  for (size_t l = 0; l < levels.size(); ++l) {
    level_offset[l] = offset;
    offset += static_cast<int32_t>(levels[l].size());
  }
  nodes_.reserve(offset);
  for (size_t l = 0; l < levels.size(); ++l) {
    for (Node node : levels[l]) {
      if (!node.is_leaf) node.first_child += level_offset[l - 1];
      nodes_.push_back(node);
    }
  }
  root_ = static_cast<int32_t>(nodes_.size()) - 1;
}

int64_t StrTree::MemoryBytes() const {
  return static_cast<int64_t>(entries_.size() * sizeof(Entry) +
                              nodes_.size() * sizeof(Node));
}

}  // namespace cloudjoin::index
