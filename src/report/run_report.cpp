#include "report/run_report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "robust/error.hpp"
#include "robust/fault_injection.hpp"

namespace terrors::report {

DistSummary summarize(std::vector<double> values) {
  DistSummary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  double var = 0.0;
  for (const double v : values) var += (v - s.mean) * (v - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(values.size()));
  s.min = values.front();
  s.max = values.back();
  const auto rank = [&](double p) {
    const auto idx = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(values.size()) - 1.0,
                         std::floor(p * static_cast<double>(values.size()))));
    return values[idx];
  };
  s.p50 = rank(0.50);
  s.p95 = rank(0.95);
  s.p99 = rank(0.99);
  return s;
}

namespace {

using obs::json_number;
using obs::json_string;

void write_bool(std::ostream& os, bool b) { os << (b ? "true" : "false"); }

void write_summary(std::ostream& os, const DistSummary& s) {
  os << "{\"count\":";
  json_number(os, s.count);
  os << ",\"mean\":";
  json_number(os, s.mean);
  os << ",\"stddev\":";
  json_number(os, s.stddev);
  os << ",\"min\":";
  json_number(os, s.min);
  os << ",\"max\":";
  json_number(os, s.max);
  os << ",\"p50\":";
  json_number(os, s.p50);
  os << ",\"p95\":";
  json_number(os, s.p95);
  os << ",\"p99\":";
  json_number(os, s.p99);
  os << "}";
}

DistSummary read_summary(const JsonValue& v) {
  DistSummary s;
  s.count = v.get_uint("count");
  s.mean = v.get_number("mean");
  s.stddev = v.get_number("stddev");
  s.min = v.get_number("min");
  s.max = v.get_number("max");
  s.p50 = v.get_number("p50");
  s.p95 = v.get_number("p95");
  s.p99 = v.get_number("p99");
  return s;
}

}  // namespace

void RunReport::write_json(std::ostream& os) const {
  os << "{\"kind\":";
  json_string(os, kReportKind);
  os << ",\"schema_version\":";
  json_number(os, static_cast<std::uint64_t>(schema_version));
  os << ",\"program\":";
  json_string(os, program);
  if (!run_id.empty()) {
    os << ",\"run_id\":";
    json_string(os, run_id);
  }
  os << ",\"period_ps\":";
  json_number(os, period_ps);
  os << ",\"threads\":";
  json_number(os, static_cast<std::uint64_t>(threads));
  os << ",\"runs\":";
  json_number(os, runs);
  os << ",\"instructions\":";
  json_number(os, instructions);
  os << ",\"total_instructions\":";
  json_number(os, total_instructions);
  os << ",\"basic_blocks\":";
  json_number(os, static_cast<std::uint64_t>(basic_blocks));

  os << ",\"estimate\":{\"rate_mean\":";
  json_number(os, rate_mean);
  os << ",\"rate_sd\":";
  json_number(os, rate_sd);
  os << ",\"lambda_mean\":";
  json_number(os, lambda_mean);
  os << ",\"lambda_sd\":";
  json_number(os, lambda_sd);
  os << ",\"dk_lambda\":";
  json_number(os, dk_lambda);
  os << ",\"dk_count\":";
  json_number(os, dk_count);
  os << ",\"b1_worst\":";
  json_number(os, b1_worst);
  os << ",\"b2_worst\":";
  json_number(os, b2_worst);
  os << ",\"sigma_chain\":";
  json_number(os, sigma_chain);
  os << "}";

  os << ",\"runtime\":{\"training_seconds\":";
  json_number(os, training_seconds);
  os << ",\"simulation_seconds\":";
  json_number(os, simulation_seconds);
  os << ",\"estimation_seconds\":";
  json_number(os, estimation_seconds);
  os << ",\"cache_hits\":";
  json_number(os, cache_hits);
  os << ",\"cache_misses\":";
  json_number(os, cache_misses);
  os << "}";

  os << ",\"blocks\":[";
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BlockAttribution& b = blocks[i];
    if (i != 0) os << ",";
    os << "{\"block\":";
    json_number(os, static_cast<std::uint64_t>(b.block));
    os << ",\"executions\":";
    json_number(os, b.executions);
    os << ",\"exec_weight\":";
    json_number(os, b.exec_weight);
    os << ",\"lambda_mean\":";
    json_number(os, b.lambda_mean);
    os << ",\"lambda_sd\":";
    json_number(os, b.lambda_sd);
    os << ",\"share\":";
    json_number(os, b.share);
    os << ",\"edges\":[";
    for (std::size_t j = 0; j < b.edges.size(); ++j) {
      const EdgeAttribution& e = b.edges[j];
      if (j != 0) os << ",";
      os << "{\"from\":";
      json_number(os, static_cast<std::uint64_t>(e.from_block));
      os << ",\"traversals\":";
      json_number(os, e.traversals);
      os << ",\"activation\":";
      json_number(os, e.activation);
      os << "}";
    }
    os << "],\"instrs\":[";
    for (std::size_t j = 0; j < b.instrs.size(); ++j) {
      const InstrAttribution& in = b.instrs[j];
      if (j != 0) os << ",";
      os << "{\"mnemonic\":";
      json_string(os, in.mnemonic);
      os << ",\"p_correct_mean\":";
      json_number(os, in.p_correct_mean);
      os << ",\"p_error_mean\":";
      json_number(os, in.p_error_mean);
      os << ",\"marginal_mean\":";
      json_number(os, in.marginal_mean);
      os << ",\"has_ctrl\":";
      write_bool(os, in.has_ctrl);
      os << ",\"ctrl_slack_mean\":";
      json_number(os, in.ctrl_slack_mean);
      os << ",\"ctrl_slack_sd\":";
      json_number(os, in.ctrl_slack_sd);
      os << "}";
    }
    os << "]}";
  }
  os << "]";

  os << ",\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageSlack& st = stages[i];
    if (i != 0) os << ",";
    os << "{\"stage\":";
    json_number(os, static_cast<std::uint64_t>(st.stage));
    os << ",\"endpoints\":";
    json_number(os, static_cast<std::uint64_t>(st.endpoints));
    os << ",\"slack\":";
    write_summary(os, st.slack);
    os << "}";
  }
  os << "]";

  os << ",\"opcodes\":[";
  for (std::size_t i = 0; i < opcodes.size(); ++i) {
    const OpcodeAttribution& oc = opcodes[i];
    if (i != 0) os << ",";
    os << "{\"mnemonic\":";
    json_string(os, oc.mnemonic);
    os << ",\"error_mass\":";
    json_number(os, oc.error_mass);
    os << ",\"share\":";
    json_number(os, oc.share);
    os << ",\"ctrl_slack\":";
    write_summary(os, oc.ctrl_slack);
    os << "}";
  }
  os << "]";

  os << ",\"culprits\":[";
  for (std::size_t i = 0; i < culprits.size(); ++i) {
    const CulpritPath& c = culprits[i];
    if (i != 0) os << ",";
    os << "{\"endpoint\":";
    json_number(os, static_cast<std::uint64_t>(c.endpoint));
    os << ",\"stage\":";
    json_number(os, static_cast<std::uint64_t>(c.stage));
    os << ",\"slack_mean\":";
    json_number(os, c.slack_mean);
    os << ",\"slack_sd\":";
    json_number(os, c.slack_sd);
    os << ",\"delay_ps\":";
    json_number(os, c.delay_ps);
    os << ",\"gates\":";
    json_number(os, static_cast<std::uint64_t>(c.gates));
    os << "}";
  }
  os << "]";

  os << ",\"solver\":{\"scc_count\":";
  json_number(os, static_cast<std::uint64_t>(solver.scc_count));
  os << ",\"cyclic_sccs\":";
  json_number(os, static_cast<std::uint64_t>(solver.cyclic_sccs));
  os << ",\"max_scc_size\":";
  json_number(os, static_cast<std::uint64_t>(solver.max_scc_size));
  os << ",\"max_residual\":";
  json_number(os, solver.max_residual);
  os << ",\"sccs\":[";
  for (std::size_t i = 0; i < solver.sccs.size(); ++i) {
    const SccDiag& d = solver.sccs[i];
    if (i != 0) os << ",";
    os << "{\"scc\":";
    json_number(os, static_cast<std::uint64_t>(d.scc));
    os << ",\"size\":";
    json_number(os, static_cast<std::uint64_t>(d.size));
    os << ",\"cyclic\":";
    write_bool(os, d.cyclic);
    os << ",\"max_residual\":";
    json_number(os, d.max_residual);
    // Emitted only when set: healthy reports stay byte-identical.
    if (d.degraded) os << ",\"degraded\":true";
    os << "}";
  }
  os << "]}";

  if (degraded) {
    os << ",\"degraded\":{\"sites\":[";
    for (std::size_t i = 0; i < degraded_sites.size(); ++i) {
      if (i != 0) os << ",";
      json_string(os, degraded_sites[i]);
    }
    os << "]}";
  }

  os << ",\"mc\":{\"enabled\":";
  write_bool(os, mc.enabled);
  os << ",\"trials\":";
  json_number(os, static_cast<std::uint64_t>(mc.trials));
  os << ",\"divergence\":";
  json_number(os, mc.divergence);
  os << "}}\n";
}

RunReport RunReport::from_json(const JsonValue& doc) {
  if (!doc.is_object())
    robust::raise(robust::Category::kArtifact, "run report: top level is not an object");
  const JsonValue* kind = doc.find("kind");
  if (kind == nullptr || !kind->is_string() || kind->as_string() != kReportKind) {
    robust::raise(robust::Category::kArtifact, "run report: not a terrors_run_report document");
  }
  const auto version = static_cast<int>(doc.at("schema_version").as_uint());
  if (version != kSchemaVersion) {
    robust::raise(robust::Category::kArtifact, "run report: unsupported schema_version " +
                                                   std::to_string(version) + " (expected " +
                                                   std::to_string(kSchemaVersion) + ")");
  }

  RunReport r;
  r.schema_version = version;
  r.program = doc.at("program").as_string();
  if (const JsonValue* rid = doc.find("run_id")) r.run_id = rid->as_string();
  r.period_ps = doc.get_number("period_ps");
  r.threads = static_cast<std::size_t>(doc.get_uint("threads", 1));
  r.runs = doc.get_uint("runs");
  r.instructions = doc.get_uint("instructions");
  r.total_instructions = doc.get_uint("total_instructions");
  r.basic_blocks = static_cast<std::size_t>(doc.get_uint("basic_blocks"));

  const JsonValue& est = doc.at("estimate");
  r.rate_mean = est.get_number("rate_mean");
  r.rate_sd = est.get_number("rate_sd");
  r.lambda_mean = est.get_number("lambda_mean");
  r.lambda_sd = est.get_number("lambda_sd");
  r.dk_lambda = est.get_number("dk_lambda");
  r.dk_count = est.get_number("dk_count");
  r.b1_worst = est.get_number("b1_worst");
  r.b2_worst = est.get_number("b2_worst");
  r.sigma_chain = est.get_number("sigma_chain");

  const JsonValue& rt = doc.at("runtime");
  r.training_seconds = rt.get_number("training_seconds");
  r.simulation_seconds = rt.get_number("simulation_seconds");
  r.estimation_seconds = rt.get_number("estimation_seconds");
  r.cache_hits = rt.get_uint("cache_hits");
  r.cache_misses = rt.get_uint("cache_misses");

  for (const JsonValue& bv : doc.at("blocks").items()) {
    BlockAttribution b;
    b.block = static_cast<std::uint32_t>(bv.get_uint("block"));
    b.executions = bv.get_uint("executions");
    b.exec_weight = bv.get_number("exec_weight");
    b.lambda_mean = bv.get_number("lambda_mean");
    b.lambda_sd = bv.get_number("lambda_sd");
    b.share = bv.get_number("share");
    for (const JsonValue& ev : bv.at("edges").items()) {
      EdgeAttribution e;
      e.from_block = static_cast<std::uint32_t>(ev.get_uint("from"));
      e.traversals = ev.get_uint("traversals");
      e.activation = ev.get_number("activation");
      b.edges.push_back(e);
    }
    for (const JsonValue& iv : bv.at("instrs").items()) {
      InstrAttribution in;
      in.mnemonic = iv.at("mnemonic").as_string();
      in.p_correct_mean = iv.get_number("p_correct_mean");
      in.p_error_mean = iv.get_number("p_error_mean");
      in.marginal_mean = iv.get_number("marginal_mean");
      in.has_ctrl = iv.at("has_ctrl").as_bool();
      in.ctrl_slack_mean = iv.get_number("ctrl_slack_mean");
      in.ctrl_slack_sd = iv.get_number("ctrl_slack_sd");
      b.instrs.push_back(std::move(in));
    }
    r.blocks.push_back(std::move(b));
  }

  for (const JsonValue& sv : doc.at("stages").items()) {
    StageSlack st;
    st.stage = static_cast<std::uint8_t>(sv.get_uint("stage"));
    st.endpoints = static_cast<std::size_t>(sv.get_uint("endpoints"));
    st.slack = read_summary(sv.at("slack"));
    r.stages.push_back(st);
  }

  for (const JsonValue& ov : doc.at("opcodes").items()) {
    OpcodeAttribution oc;
    oc.mnemonic = ov.at("mnemonic").as_string();
    oc.error_mass = ov.get_number("error_mass");
    oc.share = ov.get_number("share");
    oc.ctrl_slack = read_summary(ov.at("ctrl_slack"));
    r.opcodes.push_back(std::move(oc));
  }

  for (const JsonValue& cv : doc.at("culprits").items()) {
    CulpritPath c;
    c.endpoint = static_cast<std::uint32_t>(cv.get_uint("endpoint"));
    c.stage = static_cast<std::uint8_t>(cv.get_uint("stage"));
    c.slack_mean = cv.get_number("slack_mean");
    c.slack_sd = cv.get_number("slack_sd");
    c.delay_ps = cv.get_number("delay_ps");
    c.gates = static_cast<std::size_t>(cv.get_uint("gates"));
    r.culprits.push_back(c);
  }

  const JsonValue& so = doc.at("solver");
  r.solver.scc_count = static_cast<std::size_t>(so.get_uint("scc_count"));
  r.solver.cyclic_sccs = static_cast<std::size_t>(so.get_uint("cyclic_sccs"));
  r.solver.max_scc_size = static_cast<std::size_t>(so.get_uint("max_scc_size"));
  r.solver.max_residual = so.get_number("max_residual");
  for (const JsonValue& dv : so.at("sccs").items()) {
    SccDiag d;
    d.scc = static_cast<std::uint32_t>(dv.get_uint("scc"));
    d.size = static_cast<std::size_t>(dv.get_uint("size"));
    d.cyclic = dv.at("cyclic").as_bool();
    d.max_residual = dv.get_number("max_residual");
    const JsonValue* deg = dv.find("degraded");
    d.degraded = deg != nullptr && deg->as_bool();
    r.solver.sccs.push_back(d);
  }

  // Optional (absent from healthy and pre-§5f reports).
  if (const JsonValue* deg = doc.find("degraded")) {
    r.degraded = true;
    for (const JsonValue& sv : deg->at("sites").items()) {
      r.degraded_sites.push_back(sv.as_string());
    }
  }

  const JsonValue& mcv = doc.at("mc");
  r.mc.enabled = mcv.at("enabled").as_bool();
  r.mc.trials = static_cast<std::size_t>(mcv.get_uint("trials"));
  r.mc.divergence = mcv.get_number("divergence");
  return r;
}

RunReport RunReport::load(const std::string& path) {
  robust::maybe_fault("report.read");
  std::ifstream in(path, std::ios::binary);
  if (!in)
    robust::raise(robust::Category::kResource, "cannot open run report '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return from_json(JsonValue::parse(buf.str()));
  } catch (const robust::Error& e) {
    throw robust::Error::wrap("load run report '" + path + "'", e);
  }
}

}  // namespace terrors::report
