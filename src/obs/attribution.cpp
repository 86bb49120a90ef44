#include "obs/attribution.hpp"

#include <string_view>
#include <vector>

#include "obs/json_writer.hpp"

namespace reramdl::obs {

namespace {

// total(node) = self + sum of children totals, computed bottom-up.
using Values = std::map<std::string, double>;

void merge_into(Values& into, const Values& from) {
  for (const auto& [k, v] : from) into[k] += v;
}

}  // namespace

Attribution& Attribution::instance() {
  // Leaked like the rest of obs state: written from atexit report hooks.
  static Attribution* a = new Attribution;
  return *a;
}

Attribution::Node& Attribution::node_at(const std::string& path) {
  Node* n = &root_;
  std::string_view rest(path);
  while (!rest.empty()) {
    const std::size_t slash = rest.find('/');
    const std::string_view seg = rest.substr(0, slash);
    if (!seg.empty()) n = &n->children[std::string(seg)];
    rest = slash == std::string_view::npos ? std::string_view()
                                           : rest.substr(slash + 1);
  }
  return *n;
}

const Attribution::Node* Attribution::find(const std::string& path) const {
  const Node* n = &root_;
  std::string_view rest(path);
  while (!rest.empty()) {
    const std::size_t slash = rest.find('/');
    const std::string_view seg = rest.substr(0, slash);
    if (!seg.empty()) {
      const auto it = n->children.find(std::string(seg));
      if (it == n->children.end()) return nullptr;
      n = &it->second;
    }
    rest = slash == std::string_view::npos ? std::string_view()
                                           : rest.substr(slash + 1);
  }
  return n;
}

void Attribution::add(const std::string& path, const std::string& key,
                      double value) {
  std::lock_guard<std::mutex> lock(mu_);
  node_at(path).self[key] += value;
}

double Attribution::total(const std::string& path,
                          const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Node* n = find(path);
  if (n == nullptr) return 0.0;
  // Iterative DFS to avoid recursion limits on deep (pathological) trees.
  double sum = 0.0;
  std::vector<const Node*> stack{n};
  while (!stack.empty()) {
    const Node* cur = stack.back();
    stack.pop_back();
    const auto it = cur->self.find(key);
    if (it != cur->self.end()) sum += it->second;
    for (const auto& [name, child] : cur->children) stack.push_back(&child);
  }
  return sum;
}

bool Attribution::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return root_.self.empty() && root_.children.empty();
}

void Attribution::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  root_.self.clear();
  root_.children.clear();
}

namespace {

// Emits `node` (named) and returns its rollup totals to the parent.
// Attribution::Node is private; the friend-free workaround is a template.
template <typename NodeT>
Values write_node_impl(JsonWriter& w, const std::string& name,
                       const NodeT& node) {
  Values total = node.self;
  w.begin_object();
  w.kv("name", name);

  w.key("self");
  w.begin_object();
  for (const auto& [k, v] : node.self) w.kv(k, v);
  w.end_object();

  w.key("children");
  w.begin_array();
  for (const auto& [child_name, child] : node.children)
    merge_into(total, write_node_impl(w, child_name, child));
  w.end_array();

  w.key("total");
  w.begin_object();
  for (const auto& [k, v] : total) w.kv(k, v);
  w.end_object();

  const auto roofline = total.find("roofline_flops");
  if (roofline != total.end() && roofline->second > 0.0)
    w.kv("utilization", total["flops"] / roofline->second);

  w.end_object();
  return total;
}

}  // namespace

void Attribution::write_json(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.begin_array();
  for (const auto& [name, child] : root_.children)
    write_node_impl(w, name, child);
  w.end_array();
}

}  // namespace reramdl::obs
