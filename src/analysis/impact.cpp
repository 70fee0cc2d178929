#include "analysis/impact.hpp"

#include <algorithm>
#include <deque>

namespace meissa::analysis {

namespace {

// FNV-1a 64 — the same hash discipline as driver/checkpoint's content key
// (kept local: analysis sits below driver in the link order).
constexpr uint64_t kOffset = 1469598103934665603ull;
constexpr uint64_t kPrime = 1099511628211ull;

uint64_t mix_bytes(uint64_t h, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kPrime;
  return h;
}

uint64_t mix_u64(uint64_t h, uint64_t v) { return mix_bytes(h, &v, sizeof(v)); }

uint64_t mix_str(uint64_t h, const std::string& s) {
  uint64_t n = s.size();
  h = mix_bytes(h, &n, sizeof(n));
  return mix_bytes(h, s.data(), s.size());
}

// Node content rendered with field *names* and expression strings — never
// FieldIds (interning order) or NodeIds (build order). Labels are
// diagnostics-only and deliberately excluded.
uint64_t mix_node_content(uint64_t h, const ir::Context& ctx,
                          const cfg::Cfg& g, cfg::NodeId id) {
  const cfg::Node& n = g.node(id);
  h = mix_u64(h, static_cast<uint64_t>(n.stmt.kind));
  if (n.stmt.target != ir::kInvalidField) {
    h = mix_str(h, ctx.fields.name(n.stmt.target));
  }
  if (n.stmt.expr != nullptr) {
    h = mix_str(h, ir::to_string(n.stmt.expr, ctx.fields));
  }
  h = mix_u64(h, n.is_hash ? 1 : 0);
  if (n.is_hash) {
    h = mix_str(h, ctx.fields.name(n.hash.dest));
    h = mix_u64(h, static_cast<uint64_t>(n.hash.algo));
    h = mix_u64(h, n.hash.keys.size());
    for (ir::FieldId k : n.hash.keys) h = mix_str(h, ctx.fields.name(k));
    h = mix_u64(h, n.hash.key_exprs.size());
    for (ir::ExprRef k : n.hash.key_exprs) {
      h = mix_str(h, ir::to_string(k, ctx.fields));
    }
  }
  h = mix_u64(h, static_cast<uint64_t>(n.exit));
  h = mix_u64(h, static_cast<uint64_t>(static_cast<int64_t>(n.emit_instance)));
  h = mix_u64(h, n.synthetic ? 1 : 0);
  h = mix_u64(h, static_cast<uint64_t>(n.origin.kind));
  if (n.origin.kind != cfg::OriginKind::kNone) {
    h = mix_str(h, g.origin_ref(id));
    h = mix_u64(h, static_cast<uint64_t>(static_cast<int64_t>(n.origin.index)));
    h = mix_u64(h, static_cast<uint64_t>(static_cast<int64_t>(n.origin.sub)));
  }
  return h;
}

constexpr uint64_t kForeignSucc = ~uint64_t{0};   // edge leaving the region
constexpr uint64_t kRegionBoundary = 0xE0F0ull;   // exit marker

// Discovery-order BFS over one region from the instance entry (successor
// order fixes the discovery order, so local indices are a pure function of
// the subgraph's shape), stopping at the exit. Returns the nodes in
// discovery order and their local indices.
void region_order(const cfg::Cfg& g, size_t k, std::vector<cfg::NodeId>& order,
                  std::unordered_map<cfg::NodeId, uint64_t>& local) {
  const cfg::InstanceInfo& info = g.instances()[k];
  std::deque<cfg::NodeId> queue;
  auto discover = [&](cfg::NodeId id) {
    if (local.emplace(id, order.size()).second) {
      order.push_back(id);
      queue.push_back(id);
    }
  };
  discover(info.entry);
  while (!queue.empty()) {
    const cfg::NodeId cur = queue.front();
    queue.pop_front();
    if (cur == info.exit) continue;  // exit successors belong to the glue
    for (cfg::NodeId s : g.node(cur).succ) {
      const cfg::Node& sn = g.node(s);
      if (s == info.exit || sn.instance == static_cast<int>(k)) discover(s);
    }
  }
}

uint64_t mix_instance_meta(uint64_t h, const ir::Context& ctx,
                           const cfg::InstanceInfo& info) {
  h = mix_str(h, info.name);
  h = mix_str(h, info.pipeline);
  h = mix_u64(h, static_cast<uint64_t>(info.switch_id));
  h = mix_u64(h, info.emit_order.size());
  for (const std::string& e : info.emit_order) h = mix_str(h, e);
  std::vector<std::string> headers;
  headers.reserve(info.validity.size());
  for (const auto& [hname, vf] : info.validity) headers.push_back(hname);
  std::sort(headers.begin(), headers.end());
  for (const std::string& hname : headers) {
    h = mix_str(h, hname);
    h = mix_str(h, ctx.fields.name(info.validity.at(hname)));
  }
  return h;
}

// One region's full content hash.
uint64_t region_fingerprint(const ir::Context& ctx, const cfg::Cfg& g,
                            size_t k) {
  const cfg::InstanceInfo& info = g.instances()[k];
  std::vector<cfg::NodeId> order;
  std::unordered_map<cfg::NodeId, uint64_t> local;
  region_order(g, k, order, local);

  uint64_t h = mix_instance_meta(kOffset, ctx, info);
  h = mix_u64(h, order.size());
  for (cfg::NodeId id : order) {
    h = mix_node_content(h, ctx, g, id);
    if (id == info.exit) {
      h = mix_u64(h, kRegionBoundary);
      continue;
    }
    const std::vector<cfg::NodeId>& succ = g.node(id).succ;
    h = mix_u64(h, succ.size());
    for (cfg::NodeId s : succ) {
      auto it = local.find(s);
      h = mix_u64(h, it != local.end() ? it->second : kForeignSucc);
    }
  }
  return h;
}

// The instance inventory, then the inter-pipeline glue with instances
// collapsed to super-nodes: a traversal unit is either one glue node or
// one whole instance (whose outgoing edges are its exit node's
// successors).
uint64_t glue_fingerprint(const ir::Context& ctx, const cfg::Cfg& g) {
  uint64_t h = mix_u64(kOffset, g.instances().size());
  for (const cfg::InstanceInfo& info : g.instances()) h = mix_str(h, info.name);
  if (g.size() == 0) return h;
  struct Unit {
    bool is_instance = false;
    uint32_t id = 0;  // NodeId or instance index
  };
  auto unit_of = [&](cfg::NodeId id) -> Unit {
    const cfg::Node& n = g.node(id);
    if (n.instance >= 0) return {true, static_cast<uint32_t>(n.instance)};
    return {false, id};
  };
  auto key_of = [](Unit u) -> uint64_t {
    return (uint64_t{u.is_instance ? 1u : 0u} << 32) | u.id;
  };
  std::unordered_map<uint64_t, uint64_t> local;
  std::vector<Unit> order;
  std::deque<Unit> queue;
  auto discover = [&](Unit u) {
    if (local.emplace(key_of(u), order.size()).second) {
      order.push_back(u);
      queue.push_back(u);
    }
  };
  discover(unit_of(g.entry()));
  auto succ_of = [&](Unit u) -> const std::vector<cfg::NodeId>& {
    if (u.is_instance) return g.node(g.instances()[u.id].exit).succ;
    return g.node(u.id).succ;
  };
  while (!queue.empty()) {
    const Unit cur = queue.front();
    queue.pop_front();
    for (cfg::NodeId s : succ_of(cur)) discover(unit_of(s));
  }

  h = mix_u64(h, order.size());
  for (const Unit& u : order) {
    if (u.is_instance) {
      h = mix_u64(h, 1);
      h = mix_str(h, g.instances()[u.id].name);
    } else {
      h = mix_u64(h, 0);
      h = mix_node_content(h, ctx, g, u.id);
    }
    const std::vector<cfg::NodeId>& succ = succ_of(u);
    h = mix_u64(h, succ.size());
    for (cfg::NodeId s : succ) h = mix_u64(h, local.at(key_of(unit_of(s))));
  }
  return h;
}

}  // namespace

uint64_t fingerprint_graph(const ir::Context& ctx, const cfg::Cfg& g) {
  uint64_t h = kOffset;
  h = mix_u64(h, g.size());
  h = mix_u64(h, g.entry());
  for (cfg::NodeId n = 0; n < g.size(); ++n) {
    const cfg::Node& node = g.node(n);
    h = mix_u64(h, static_cast<uint64_t>(node.stmt.kind));
    if (node.stmt.target != ir::kInvalidField) {
      h = mix_str(h, ctx.fields.name(node.stmt.target));
    }
    if (node.stmt.expr != nullptr) {
      h = mix_str(h, ir::to_string(node.stmt.expr, ctx.fields));
    }
    h = mix_u64(h, node.is_hash ? 1 : 0);
    if (node.is_hash) {
      h = mix_str(h, ctx.fields.name(node.hash.dest));
      h = mix_u64(h, static_cast<uint64_t>(node.hash.algo));
      h = mix_u64(h, node.hash.keys.size());
      for (ir::FieldId k : node.hash.keys) h = mix_str(h, ctx.fields.name(k));
      h = mix_u64(h, node.hash.key_exprs.size());
      for (ir::ExprRef k : node.hash.key_exprs) {
        h = mix_str(h, ir::to_string(k, ctx.fields));
      }
    }
    h = mix_u64(h, node.succ.size());
    for (cfg::NodeId s : node.succ) h = mix_u64(h, s);
    h = mix_u64(h, static_cast<uint64_t>(node.exit));
    h = mix_u64(h, static_cast<uint64_t>(node.emit_instance));
    h = mix_u64(h, static_cast<uint64_t>(node.instance));
  }
  h = mix_u64(h, g.instances().size());
  for (const cfg::InstanceInfo& info : g.instances()) {
    h = mix_str(h, info.name);
    h = mix_str(h, info.pipeline);
    h = mix_u64(h, static_cast<uint64_t>(info.switch_id));
    h = mix_u64(h, info.entry);
    h = mix_u64(h, info.exit);
    for (const std::string& e : info.emit_order) h = mix_str(h, e);
  }
  return h;
}

RegionFingerprints fingerprint_regions(const ir::Context& ctx,
                                       const cfg::Cfg& g) {
  RegionFingerprints out;
  for (size_t k = 0; k < g.instances().size(); ++k) {
    out.region.emplace(g.instances()[k].name, region_fingerprint(ctx, g, k));
  }
  out.glue = glue_fingerprint(ctx, g);
  return out;
}

uint64_t unit_fingerprint(const RegionFingerprints& fps,
                          const std::string& instance) {
  return mix_u64(mix_u64(kOffset, fps.region.at(instance)), fps.glue);
}

}  // namespace meissa::analysis
