// Hierarchical attribution: a process-global tree that folds the scattered
// span/stat sources (per-bank chip-sim busy/energy, per-layer controller
// segments, per-tile grid MVMs, NoC transfers, plan-cache hits,
// write-verify retries) into one
// chip -> bank -> layer -> tile report.
//
// Nodes are addressed by slash paths ("chip/bank0/layer2/tile3") and carry a
// flat map of named double accumulators ("latency_ns", "energy_pj", "flops",
// "roofline_flops", ...). Writers only ever add() into a node's *self*
// values; rollup totals (total = self + sum of children totals) and the
// derived utilization = flops / roofline_flops are computed at write_json
// time, so the emitted tree reconciles exactly by construction.
//
// Determinism: every producer either adds from a serial section or from
// per-item deltas already merged in a fixed order, and std::map keeps the
// JSON ordering stable — the tree is byte-identical for any RERAMDL_THREADS.
// Callers gate on metrics_enabled(); the disabled path never reaches here.
#pragma once

#include <map>
#include <mutex>
#include <string>

namespace reramdl::obs {

class JsonWriter;

class Attribution {
 public:
  static Attribution& instance();

  // Accumulate `value` into accumulator `key` of the node at `path`
  // (slash-separated; intermediate nodes spring into existence).
  void add(const std::string& path, const std::string& key, double value);

  // Rollup total (self + all descendants) of `key` at `path`; "" addresses
  // the whole tree. Missing nodes/keys read as 0.
  double total(const std::string& path, const std::string& key) const;

  bool empty() const;
  void reset();

  // Emits the top-level node array:
  //   [{"name": ..., "self": {...}, "total": {...},
  //     "utilization": ...?, "children": [...]}, ...]
  void write_json(JsonWriter& w) const;

 private:
  struct Node {
    std::map<std::string, double> self;
    std::map<std::string, Node> children;
  };

  Attribution() = default;

  Node& node_at(const std::string& path);  // requires mu_ held
  const Node* find(const std::string& path) const;

  mutable std::mutex mu_;
  Node root_;
};

}  // namespace reramdl::obs
