// Production-style elastic-IP gateway family (paper Table 1 rows 5-8 and
// the Fig. 1 deployment): VXLAN encap/decap with elastic-IP NAT, ACLs,
// statistics, a proprietary transit header, and switch-style L2/L3 pipes,
// instantiated as 1, 2, 4 or 8 pipelines across 1 or 2 switches.
#include <algorithm>

#include "apps/apps.hpp"
#include "apps/protocols.hpp"
#include "apps/rulegen.hpp"

namespace meissa::apps {

using p4::ActionDef;
using p4::ActionOp;
using p4::ControlStmt;
using p4::KeyMatch;
using p4::MatchKind;
using p4::TableDef;
using p4::TableEntry;

namespace {

// Deterministic address plan for the elastic-IP rule sets (set-k scaling).
uint64_t vm_private_ip(int i) { return 0x0a000000u + static_cast<uint64_t>(i); }
uint64_t elastic_ip(int i) { return 0xcb007100u + static_cast<uint64_t>(i); }
uint64_t remote_vtep_ip(int i) { return 0xc6336400u + static_cast<uint64_t>(i % 64); }
uint64_t vni_of(int i) { return 100000u + static_cast<uint64_t>(i); }
constexpr uint64_t kGatewayIp = 0xc0a80001;

}  // namespace

AppBundle make_gateway(ir::Context& ctx, const GwConfig& cfg) {
  p4::ProgramBuilder b(ctx, "gw-" + std::to_string(cfg.level));
  b.header("eth", eth_header().fields);
  b.header("ipv4", ipv4_header().fields);
  b.header("tcp", tcp_header().fields);
  b.header("udp", udp_header().fields);
  b.header("vxlan", vxlan_header().fields);
  b.header("inner_ipv4", ipv4_header("inner_ipv4").fields);
  b.header("inner_tcp", tcp_header("inner_tcp").fields);
  if (cfg.level >= 3) b.header("prop", prop_header().fields);
  b.metadata_field("meta.direction", 2);  // 1 = outbound, 2 = inbound
  // Telemetry markers: the classifier/policer/decap stages record what they
  // decided for the control plane; the pipeline's own matching deliberately
  // re-keys on packet fields (the Fig. 7 constraint chain), so nothing
  // downstream reads these. The bug corpus's injected guards do read
  // meta.tenant, which is why it exists at every level.
  b.metadata_field("meta.tenant", 24, /*telemetry=*/true);
  b.metadata_field("meta.flow_class", 8, /*telemetry=*/true);
  b.metadata_field("meta.policed", 2, /*telemetry=*/true);
  b.register_array("gw_stats", 32, 4);

  // ------------------------------------------------------------- actions
  ActionDef drop;
  drop.name = "drop";
  drop.ops = {ActionOp::assign(std::string(p4::kDropFlag), b.num(1, 1))};
  b.action(drop);

  ActionDef nop;
  nop.name = "nop";
  b.action(nop);

  // Outbound: VM traffic <eth ipv4 tcp> -> NAT to the elastic IP and wrap
  // in <eth ipv4(outer) udp vxlan inner_ipv4 inner_tcp>.
  ActionDef encap;
  encap.name = "eip_encap";
  encap.params = {{"eip", 32},
                  {"vni", 24},
                  {"vtep", 32},
                  {"port", p4::kPortWidth}};
  encap.ops = {
      // Inner copies (NAT source to the elastic IP).
      ActionOp::set_valid("inner_ipv4"),
      ActionOp::assign("hdr.inner_ipv4.ver_ihl", b.var("hdr.ipv4.ver_ihl")),
      ActionOp::assign("hdr.inner_ipv4.dscp", b.var("hdr.ipv4.dscp")),
      ActionOp::assign("hdr.inner_ipv4.ecn", b.var("hdr.ipv4.ecn")),
      ActionOp::assign("hdr.inner_ipv4.len", b.var("hdr.ipv4.len")),
      ActionOp::assign("hdr.inner_ipv4.id", b.var("hdr.ipv4.id")),
      ActionOp::assign("hdr.inner_ipv4.frag", b.var("hdr.ipv4.frag")),
      ActionOp::assign("hdr.inner_ipv4.ttl", b.var("hdr.ipv4.ttl")),
      ActionOp::assign("hdr.inner_ipv4.proto", b.var("hdr.ipv4.proto")),
      ActionOp::assign("hdr.inner_ipv4.csum", b.var("hdr.ipv4.csum")),
      ActionOp::assign("hdr.inner_ipv4.src", b.arg("eip_encap", "eip", 32)),
      ActionOp::assign("hdr.inner_ipv4.dst", b.var("hdr.ipv4.dst")),
      ActionOp::set_valid("inner_tcp"),
      ActionOp::assign("hdr.inner_tcp.sport", b.var("hdr.tcp.sport")),
      ActionOp::assign("hdr.inner_tcp.dport", b.var("hdr.tcp.dport")),
      ActionOp::assign("hdr.inner_tcp.seqno", b.var("hdr.tcp.seqno")),
      ActionOp::assign("hdr.inner_tcp.ackno", b.var("hdr.tcp.ackno")),
      ActionOp::assign("hdr.inner_tcp.flags", b.var("hdr.tcp.flags")),
      ActionOp::assign("hdr.inner_tcp.window", b.var("hdr.tcp.window")),
      ActionOp::assign("hdr.inner_tcp.csum", b.var("hdr.tcp.csum")),
      ActionOp::assign("hdr.inner_tcp.urgent", b.var("hdr.tcp.urgent")),
      ActionOp::set_invalid("tcp"),
      // Outer headers.
      ActionOp::assign("hdr.ipv4.src", b.num(kGatewayIp, 32)),
      ActionOp::assign("hdr.ipv4.dst", b.arg("eip_encap", "vtep", 32)),
      ActionOp::assign("hdr.ipv4.proto", b.num(kProtoUdp, 8)),
      ActionOp::set_valid("udp"),
      ActionOp::assign("hdr.udp.sport", b.num(49152, 16)),
      ActionOp::assign("hdr.udp.dport", b.num(kUdpVxlan, 16)),
      ActionOp::set_valid("vxlan"),
      ActionOp::assign("hdr.vxlan.flags", b.num(0x08, 8)),
      ActionOp::assign("hdr.vxlan.vni", b.arg("eip_encap", "vni", 24)),
      ActionOp::assign(std::string(p4::kEgressSpec),
                       b.arg("eip_encap", "port", p4::kPortWidth)),
  };
  b.action(encap);

  // Inbound: tunneled traffic -> strip the tunnel, NAT the elastic IP back
  // to the VM-private address.
  ActionDef decap;
  decap.name = "eip_decap";
  decap.params = {{"private_ip", 32}, {"port", p4::kPortWidth}};
  decap.ops = {
      ActionOp::assign("hdr.ipv4.ver_ihl", b.var("hdr.inner_ipv4.ver_ihl")),
      ActionOp::assign("hdr.ipv4.dscp", b.var("hdr.inner_ipv4.dscp")),
      ActionOp::assign("hdr.ipv4.ecn", b.var("hdr.inner_ipv4.ecn")),
      ActionOp::assign("hdr.ipv4.len", b.var("hdr.inner_ipv4.len")),
      ActionOp::assign("hdr.ipv4.id", b.var("hdr.inner_ipv4.id")),
      ActionOp::assign("hdr.ipv4.frag", b.var("hdr.inner_ipv4.frag")),
      ActionOp::assign("hdr.ipv4.ttl", b.var("hdr.inner_ipv4.ttl")),
      ActionOp::assign("hdr.ipv4.proto", b.var("hdr.inner_ipv4.proto")),
      ActionOp::assign("hdr.ipv4.csum", b.var("hdr.inner_ipv4.csum")),
      ActionOp::assign("hdr.ipv4.src", b.var("hdr.inner_ipv4.src")),
      ActionOp::assign("hdr.ipv4.dst", b.arg("eip_decap", "private_ip", 32)),
      ActionOp::set_valid("tcp"),
      ActionOp::assign("hdr.tcp.sport", b.var("hdr.inner_tcp.sport")),
      ActionOp::assign("hdr.tcp.dport", b.var("hdr.inner_tcp.dport")),
      ActionOp::assign("hdr.tcp.seqno", b.var("hdr.inner_tcp.seqno")),
      ActionOp::assign("hdr.tcp.ackno", b.var("hdr.inner_tcp.ackno")),
      ActionOp::assign("hdr.tcp.flags", b.var("hdr.inner_tcp.flags")),
      ActionOp::assign("hdr.tcp.window", b.var("hdr.inner_tcp.window")),
      ActionOp::assign("hdr.tcp.csum", b.var("hdr.inner_tcp.csum")),
      ActionOp::assign("hdr.tcp.urgent", b.var("hdr.inner_tcp.urgent")),
      ActionOp::set_invalid("udp"),
      ActionOp::set_invalid("vxlan"),
      ActionOp::set_invalid("inner_ipv4"),
      ActionOp::set_invalid("inner_tcp"),
      ActionOp::assign(std::string(p4::kEgressSpec),
                       b.arg("eip_decap", "port", p4::kPortWidth)),
  };
  b.action(decap);

  ActionDef acl_deny;
  acl_deny.name = "acl_deny";
  acl_deny.ops = {ActionOp::assign(std::string(p4::kDropFlag), b.num(1, 1))};
  b.action(acl_deny);

  ActionDef count_gw;
  count_gw.name = "count_gw";
  count_gw.ops = {ActionOp::assign(
      p4::register_field("gw_stats", 0),
      ctx.arena.arith(ir::ArithOp::kAdd,
                      b.var(p4::register_field("gw_stats", 0)),
                      b.num(1, 32)))};
  b.action(count_gw);

  // Flow classification + policing (levels 2+): a constraint chain — the
  // policer matches on the same field the classifier constrained, so most
  // classifier x policer combinations are invalid (Fig. 7-style intra-
  // pipeline redundancy that code summary eliminates once instead of once
  // per upstream path).
  ActionDef set_fc;
  set_fc.name = "set_flow_class";
  set_fc.params = {{"fc", 8}};
  set_fc.ops = {ActionOp::assign("meta.flow_class",
                                 b.arg("set_flow_class", "fc", 8))};
  b.action(set_fc);

  ActionDef police;
  police.name = "police_mark";
  police.ops = {ActionOp::assign("meta.policed", b.num(1, 2))};
  b.action(police);

  ActionDef remark;
  remark.name = "qos_remark";
  remark.params = {{"dscp", 6}};
  remark.ops = {
      ActionOp::assign("hdr.ipv4.dscp", b.arg("qos_remark", "dscp", 6))};
  b.action(remark);

  // Proprietary transit header (gw-3/gw-4): tagged at the gateway ingress,
  // consumed and removed at the gateway egress.
  if (cfg.level >= 3) {
    ActionDef tag;
    tag.name = "prop_tag";
    tag.params = {{"tenant", 24}, {"flow_class", 8}};
    tag.ops = {
        ActionOp::set_valid("prop"),
        // Ethertype chain: prop.magic carries the original ethertype.
        ActionOp::assign("hdr.prop.magic", b.var("hdr.eth.type")),
        ActionOp::assign("hdr.eth.type", b.num(kEthProp, 16)),
        ActionOp::assign("hdr.prop.flow_class",
                         b.arg("prop_tag", "flow_class", 8)),
        ActionOp::assign("hdr.prop.tenant", b.arg("prop_tag", "tenant", 24)),
        ActionOp::assign("hdr.prop.seq", b.num(0, 16)),
        ActionOp::assign("meta.tenant", b.arg("prop_tag", "tenant", 24)),
    };
    b.action(tag);
    ActionDef untag;
    untag.name = "prop_untag";
    untag.ops = {
        ActionOp::assign("hdr.eth.type", b.var("hdr.prop.magic")),
        ActionOp::set_invalid("prop"),
    };
    b.action(untag);
  }

  // Switch-pipe actions (levels 3-4).
  ActionDef sw_route;
  sw_route.name = "sw_route";
  sw_route.params = {{"port", p4::kPortWidth}};
  sw_route.ops = {ActionOp::assign(
      std::string(p4::kEgressSpec), b.arg("sw_route", "port", p4::kPortWidth))};
  b.action(sw_route);

  ActionDef sw_set_dmac;
  sw_set_dmac.name = "sw_set_dmac";
  sw_set_dmac.params = {{"dmac", 48}};
  sw_set_dmac.ops = {
      ActionOp::assign("hdr.eth.dst", b.arg("sw_set_dmac", "dmac", 48))};
  b.action(sw_set_dmac);

  // -------------------------------------------------------------- tables
  TableDef eip;
  eip.name = "elastic_ip";
  eip.keys = {{"hdr.ipv4.src", MatchKind::kExact}};
  eip.actions = {"eip_encap", "drop"};
  eip.default_action = "drop";
  b.table(eip);

  TableDef eip_in;
  eip_in.name = "eip_decap_tbl";
  eip_in.keys = {{"hdr.vxlan.vni", MatchKind::kExact}};
  eip_in.actions = {"eip_decap", "drop"};
  eip_in.default_action = "drop";
  b.table(eip_in);

  TableDef acl;
  acl.name = "gw_acl";
  acl.keys = {{"hdr.ipv4.src", MatchKind::kTernary},
              {"hdr.ipv4.dst", MatchKind::kTernary}};
  acl.actions = {"acl_deny", "nop"};
  acl.default_action = "nop";
  b.table(acl);

  TableDef stats;
  stats.name = "gw_stats_tbl";
  stats.keys = {{"meta.direction", MatchKind::kExact}};
  stats.actions = {"count_gw", "nop"};
  stats.default_action = "nop";
  b.table(stats);

  TableDef fc_tbl;
  fc_tbl.name = "flow_class";
  fc_tbl.keys = {{"hdr.ipv4.id", MatchKind::kRange}};
  fc_tbl.actions = {"set_flow_class", "nop"};
  fc_tbl.default_action = "nop";
  b.table(fc_tbl);

  TableDef pol_tbl;
  pol_tbl.name = "policer";
  pol_tbl.keys = {{"hdr.ipv4.id", MatchKind::kExact}};
  pol_tbl.actions = {"police_mark", "nop"};
  pol_tbl.default_action = "nop";
  b.table(pol_tbl);

  TableDef qos;
  qos.name = "qos";
  qos.keys = {{"hdr.ipv4.dscp", MatchKind::kExact}};
  qos.actions = {"qos_remark", "nop"};
  qos.default_action = "nop";
  b.table(qos);

  if (cfg.level >= 3) {
    TableDef ptag;
    ptag.name = "prop_tag_tbl";
    // Keyed on the (pre-NAT) VM source address: applied before encap.
    ptag.keys = {{"hdr.ipv4.src", MatchKind::kExact}};
    ptag.actions = {"prop_tag", "nop"};
    ptag.default_action = "nop";
    b.table(ptag);
  }

  TableDef sw_l3;
  sw_l3.name = "sw_l3";
  sw_l3.keys = {{"hdr.ipv4.dst", MatchKind::kLpm}};
  sw_l3.actions = {"sw_route", "nop"};
  sw_l3.default_action = "nop";
  b.table(sw_l3);

  TableDef sw_dmac;
  sw_dmac.name = "sw_dmac";
  sw_dmac.keys = {{std::string(p4::kEgressSpec), MatchKind::kExact}};
  sw_dmac.actions = {"sw_set_dmac", "nop"};
  sw_dmac.default_action = "nop";
  b.table(sw_dmac);

  // ----------------------------------------------------------- pipelines
  // Gateway ingress: classify direction, ACL, encap or decap, stats.
  {
    p4::PipelineDef gig;
    gig.name = "gw_ingress";
    gig.parser.start = "start";
    // The transit header is internal: the gateway ingress never accepts
    // it from the outside world.
    gig.parser.states = tunnel_parser(/*parse_inner_tcp=*/true,
                                      /*with_prop=*/false);

    p4::ControlBlock outbound;
    outbound.stmts = {
        ControlStmt::inline_op(
            ActionOp::assign("meta.direction", b.num(1, 2))),
        ControlStmt::apply("elastic_ip"),
    };
    p4::ControlBlock inbound;
    inbound.stmts = {
        ControlStmt::inline_op(
            ActionOp::assign("meta.direction", b.num(2, 2))),
        ControlStmt::apply("eip_decap_tbl"),
    };
    if (cfg.level >= 3) {
      outbound.stmts.insert(outbound.stmts.begin() + 1,
                            ControlStmt::apply("prop_tag_tbl"));
    }
    p4::ControlBlock reject;
    reject.stmts = {ControlStmt::inline_op(
        ActionOp::assign(std::string(p4::kDropFlag), b.num(1, 1)))};

    p4::ControlBlock body;
    body.stmts.push_back(ControlStmt::apply("gw_acl"));
    // Outbound traffic is plain TCP from VMs; inbound is VXLAN from VTEPs.
    body.stmts.push_back(ControlStmt::if_else(
        ctx.arena.band(b.is_valid("tcp"),
                       ctx.arena.cmp(ir::CmpOp::kLt, b.var(p4::kIngressPort),
                                     b.num(32, 9))),
        outbound,
        {{ControlStmt::if_else(b.is_valid("inner_tcp"), inbound, reject)}}));
    if (cfg.level == 1) {
      // The single-pipe gateway carries the QoS chain itself.
      body.stmts.push_back(ControlStmt::apply("flow_class"));
      body.stmts.push_back(ControlStmt::apply("policer"));
    }
    body.stmts.push_back(ControlStmt::apply("gw_stats_tbl"));
    gig.control = body;
    gig.deparser.emit_order = {"eth",  "ipv4",       "udp",       "vxlan",
                               "inner_ipv4", "inner_tcp", "tcp"};
    if (cfg.level >= 3) {
      gig.deparser.emit_order.insert(gig.deparser.emit_order.begin() + 1,
                                     "prop");
    }
    gig.deparser.checksum_updates = {ipv4_checksum()};
    b.pipeline(gig);
  }

  // Gateway egress: QoS remark and checksum finalization.
  if (cfg.level >= 2) {
    p4::PipelineDef geg;
    geg.name = "gw_egress";
    geg.parser.start = "start";
    geg.parser.states =
        tunnel_parser(/*parse_inner_tcp=*/true, /*with_prop=*/cfg.level >= 3);
    geg.control.stmts = {ControlStmt::apply("flow_class"),
                         ControlStmt::apply("policer"),
                         ControlStmt::apply("qos")};
    if (cfg.level >= 3) {
      p4::ControlBlock strip;
      strip.stmts = {
          ControlStmt::inline_op(
              ActionOp::assign("hdr.eth.type", b.var("hdr.prop.magic"))),
          ControlStmt::inline_op(ActionOp::set_invalid("prop")),
      };
      geg.control.stmts.push_back(
          ControlStmt::if_else(b.is_valid("prop"), strip));
    }
    geg.deparser.emit_order = {"eth",  "ipv4",       "udp",       "vxlan",
                               "inner_ipv4", "inner_tcp", "tcp"};
    if (cfg.level >= 3) {
      geg.deparser.emit_order.insert(geg.deparser.emit_order.begin() + 1,
                                     "prop");
    }
    geg.deparser.checksum_updates = {
        ipv4_checksum(), l4_checksum("inner_ipv4", "inner_tcp")};
    b.pipeline(geg);
  }

  // Switch pipes (levels 3-4): standard L3 + MAC rewrite.
  if (cfg.level >= 3) {
    p4::PipelineDef sig;
    sig.name = "sw_ingress";
    sig.parser.start = "start";
    sig.parser.states =
        tunnel_parser(/*parse_inner_tcp=*/true, /*with_prop=*/true);
    sig.control.stmts = {ControlStmt::apply("sw_l3")};
    sig.deparser.emit_order = {"eth", "prop", "ipv4",      "udp",
                               "vxlan",      "inner_ipv4", "inner_tcp", "tcp"};
    b.pipeline(sig);

    p4::PipelineDef seg;
    seg.name = "sw_egress";
    seg.parser.start = "start";
    seg.parser.states =
        tunnel_parser(/*parse_inner_tcp=*/true, /*with_prop=*/true);
    seg.control.stmts = {ControlStmt::apply("sw_dmac")};
    seg.deparser.emit_order = {"eth", "prop", "ipv4",      "udp",
                               "vxlan",      "inner_ipv4", "inner_tcp", "tcp"};
    b.pipeline(seg);
  }

  AppBundle app;
  app.name = "gw-" + std::to_string(cfg.level);
  app.p4_14 = false;
  app.dp.program = b.build();

  // ------------------------------------------------------------ topology
  auto guard_lt = [&](uint64_t v) {
    return ctx.arena.cmp(ir::CmpOp::kLt, ctx.field_var(p4::kEgressSpec, 9),
                         ctx.arena.constant(v, 9));
  };
  auto guard_ge = [&](uint64_t v) {
    return ctx.arena.cmp(ir::CmpOp::kGe, ctx.field_var(p4::kEgressSpec, 9),
                         ctx.arena.constant(v, 9));
  };
  switch (cfg.level) {
    case 1:
      app.dp.topology.instances = {{"sw0.gig", "gw_ingress", 0}};
      app.dp.topology.entries = {{"sw0.gig", nullptr}};
      break;
    case 2:
      app.dp.topology.instances = {{"sw0.gig", "gw_ingress", 0},
                                   {"sw0.geg", "gw_egress", 0}};
      app.dp.topology.edges = {{"sw0.gig", "sw0.geg", nullptr}};
      app.dp.topology.entries = {{"sw0.gig", nullptr}};
      break;
    case 3:
      app.dp.topology.instances = {{"sw0.gig", "gw_ingress", 0},
                                   {"sw0.seg", "sw_egress", 0},
                                   {"sw0.sig", "sw_ingress", 0},
                                   {"sw0.geg", "gw_egress", 0}};
      // Fig. 1 flow A: ingress 0 -> egress 1 -> ingress 1 -> egress 0.
      app.dp.topology.edges = {{"sw0.gig", "sw0.seg", nullptr},
                               {"sw0.seg", "sw0.sig", nullptr},
                               {"sw0.sig", "sw0.geg", nullptr}};
      app.dp.topology.entries = {{"sw0.gig", nullptr}};
      break;
    case 4:
    default:
      app.dp.topology.instances = {
          {"sw0.gig", "gw_ingress", 0}, {"sw0.seg", "sw_egress", 0},
          {"sw0.sig", "sw_ingress", 0}, {"sw0.geg", "gw_egress", 0},
          {"sw1.gig", "gw_ingress", 1}, {"sw1.seg", "sw_egress", 1},
          {"sw1.sig", "sw_ingress", 1}, {"sw1.geg", "gw_egress", 1},
      };
      // Flow A (eg_spec < 64): processed entirely in switch 0.
      // Flow B (eg_spec >= 64): egress 0 of switch 0 hands over the wire
      // to switch 1, which runs the full four-pipe path (Fig. 1).
      app.dp.topology.edges = {
          {"sw0.gig", "sw0.seg", guard_lt(64)},
          {"sw0.gig", "sw0.geg", guard_ge(64)},
          {"sw0.seg", "sw0.sig", nullptr},
          {"sw0.sig", "sw0.geg", nullptr},
          {"sw0.geg", "sw1.gig", guard_ge(64)},
          {"sw1.gig", "sw1.seg", guard_lt(64)},
          {"sw1.seg", "sw1.sig", nullptr},
          {"sw1.sig", "sw1.geg", nullptr},
      };
      app.dp.topology.entries = {{"sw0.gig", nullptr}};
      break;
  }
  p4::validate(app.dp, ctx);

  // --------------------------------------------------------------- rules
  util::Rng rng(cfg.seed);
  app.rules.name = "set-" + std::to_string(cfg.level);
  const int E = cfg.elastic_ips;
  for (int i = 0; i < E; ++i) {
    TableEntry out;
    out.table = "elastic_ip";
    out.matches = {KeyMatch::exact(vm_private_ip(i))};
    out.action = "eip_encap";
    // Half the flows stay local (ports < 64), half cross switches (>= 64):
    // the Fig. 1 flow A / flow B split.
    uint64_t port = (i % 2 == 0) ? 8 + static_cast<uint64_t>(i % 48)
                                 : 64 + static_cast<uint64_t>(i % 48);
    out.args = {elastic_ip(i), vni_of(i), remote_vtep_ip(i), port};
    app.rules.add(out);

    TableEntry in;
    in.table = "eip_decap_tbl";
    in.matches = {KeyMatch::exact(vni_of(i))};
    in.action = "eip_decap";
    in.args = {vm_private_ip(i), 1 + static_cast<uint64_t>(i % 31)};
    app.rules.add(in);

    if (cfg.level >= 3) {
      TableEntry tag;
      tag.table = "prop_tag_tbl";
      tag.matches = {KeyMatch::exact(vm_private_ip(i))};
      tag.action = "prop_tag";
      tag.args = {static_cast<uint64_t>(1000 + i), static_cast<uint64_t>(i % 4)};
      app.rules.add(tag);

      TableEntry l3;
      l3.table = "sw_l3";
      // Host routes, one per VTEP: a shared /24 would shadow every entry
      // after the first and pin all flows to one port, collapsing the
      // Fig. 1 flow A / flow B split.
      l3.matches = {KeyMatch::lpm(remote_vtep_ip(i), 32)};
      l3.action = "sw_route";
      l3.args = {out.args[3]};  // keep the chosen port (chain consistency)
      app.rules.add(l3);

      TableEntry dm;
      dm.table = "sw_dmac";
      // Key on the port the packet carries when it reaches a switch
      // egress: flow A keeps its local port, but flow B is re-classified
      // and decapped at the remote switch before its seg pipe, so there
      // it carries the decap port, not the uplink port.
      dm.matches = {KeyMatch::exact(i % 2 == 0 ? out.args[3] : in.args[1])};
      dm.action = "sw_set_dmac";
      dm.args = {0x02aa00000000ull + static_cast<uint64_t>(i)};
      app.rules.add(dm);
    }
  }
  {
    // A few deny rules on reserved source ranges.
    for (int i = 0; i < std::max(2, E / 4); ++i) {
      TableEntry a;
      a.table = "gw_acl";
      a.matches = {KeyMatch::ternary(0xe0000000u + (static_cast<uint64_t>(i) << 20),
                                     0xfff00000u),
                   KeyMatch::wildcard()};
      a.action = "acl_deny";
      a.priority = i;
      app.rules.add(a);
    }
  }
  {
    // F disjoint ranges over the 16-bit hdr.ipv4.id: 4096 wide up to E = 67.
    const int F = std::max(4, E / 4);
    const uint64_t step = std::min<uint64_t>(4096, 65536 / F);
    for (int i = 0; i < F; ++i) {
      TableEntry fc;
      fc.table = "flow_class";
      fc.matches = {KeyMatch::range(static_cast<uint64_t>(i) * step,
                                    static_cast<uint64_t>(i + 1) * step - 1)};
      fc.action = "set_flow_class";
      fc.args = {static_cast<uint64_t>(i)};
      app.rules.add(fc);
      TableEntry pol;
      pol.table = "policer";
      pol.matches = {KeyMatch::exact(static_cast<uint64_t>(i) * step + 7)};
      pol.action = "police_mark";
      app.rules.add(pol);
    }
  }
  {
    TableEntry s1;
    s1.table = "gw_stats_tbl";
    s1.matches = {KeyMatch::exact(1)};
    s1.action = "count_gw";
    app.rules.add(s1);
    TableEntry q;
    q.table = "qos";
    q.matches = {KeyMatch::exact(0)};
    q.action = "qos_remark";
    q.args = {46};  // EF
    if (cfg.level >= 2) app.rules.add(q);
  }

  // -------------------------------------------------------------- intents
  // The paper's §6 NAT sub-case workflow, pinned to elastic-IP entry 0.
  spec::IntentBuilder enc(ctx, app.dp.program, "gw-outbound-encap");
  enc.assume(ctx.arena.cmp(ir::CmpOp::kLt, enc.in_port(), enc.num(32, 9)));
  enc.assume(ctx.arena.cmp(ir::CmpOp::kEq, enc.in("hdr.eth.type"),
                           enc.num(kEthIpv4, 16)));
  enc.assume(ctx.arena.cmp(ir::CmpOp::kEq, enc.in("hdr.ipv4.proto"),
                           enc.num(kProtoTcp, 8)));
  enc.assume(ctx.arena.cmp(ir::CmpOp::kEq, enc.in("hdr.ipv4.src"),
                           enc.num(vm_private_ip(0), 32)));
  enc.expect_delivered();
  enc.expect_header("vxlan", true);
  enc.expect_header("inner_tcp", true);
  enc.expect(ctx.arena.cmp(ir::CmpOp::kEq, enc.out("hdr.inner_ipv4.src"),
                           enc.num(elastic_ip(0), 32)));
  enc.expect(ctx.arena.cmp(ir::CmpOp::kEq, enc.out("hdr.inner_tcp.ackno"),
                           enc.in("hdr.tcp.ackno")));
  if (cfg.level >= 2) {
    // The egress pipeline must leave a correct inner L4 checksum.
    enc.expect_checksum("hdr.inner_tcp.csum",
                        {"hdr.inner_ipv4.src", "hdr.inner_ipv4.dst",
                         "hdr.inner_ipv4.proto", "hdr.inner_tcp.sport",
                         "hdr.inner_tcp.dport"});
  }
  app.intents.push_back(enc.build());

  spec::IntentBuilder dec(ctx, app.dp.program, "gw-inbound-decap");
  dec.assume(ctx.arena.cmp(ir::CmpOp::kGe, dec.in_port(), dec.num(32, 9)));
  dec.assume(ctx.arena.cmp(ir::CmpOp::kEq, dec.in("hdr.eth.type"),
                           dec.num(kEthIpv4, 16)));
  dec.assume(ctx.arena.cmp(ir::CmpOp::kEq, dec.in("hdr.vxlan.vni"),
                           dec.num(vni_of(0), 24)));
  dec.assume(ctx.arena.cmp(ir::CmpOp::kEq, dec.in("hdr.inner_ipv4.proto"),
                           dec.num(kProtoTcp, 8)));
  // Tunnels come from unicast VTEPs; the ACL's denied ranges (multicast
  // and reserved space) are out of scope for this sub-case.
  dec.assume(ctx.arena.cmp(ir::CmpOp::kLt, dec.in("hdr.ipv4.src"),
                           dec.num(0xe0000000u, 32)));
  dec.expect_delivered();
  dec.expect_header("vxlan", false);
  dec.expect(ctx.arena.cmp(ir::CmpOp::kEq, dec.out("hdr.ipv4.dst"),
                           dec.num(vm_private_ip(0), 32)));
  app.intents.push_back(dec.build());

  return app;
}

}  // namespace meissa::apps
