#include "oracle.h"

#include "serve/json.h"

#include <cstdio>

namespace c2hbench {

using namespace c2h;

namespace {

// CASH is the one asynchronous flow: golden agreement only, no vsim.
bool isAsyncFlow(const std::string &flow) { return flow == "cash"; }

std::string checkRow(const std::string &flow, bool accepted, bool verified,
                     const std::string &note, bool verdict, bool cosimRan,
                     bool cosimOk, std::uint64_t cycles,
                     std::uint64_t cosimCycles) {
  if (note.rfind("internal error:", 0) == 0)
    return flow + ": " + note;
  if (verdict)
    return flow + ": unexpected verdict: " + note;
  if (!accepted)
    return "";
  if (!verified)
    return flow + ": accepted but not verified: " + note;
  if (isAsyncFlow(flow))
    return "";
  if (!cosimRan || !cosimOk)
    return flow + ": three-model cosim failed";
  if (cosimCycles != cycles)
    return flow + ": cycle disagreement fsmd " + std::to_string(cycles) +
           " vs vsim " + std::to_string(cosimCycles);
  return "";
}

} // namespace

std::uint64_t fnv1a(const std::string &text) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string checkRows(const std::vector<core::FlowComparison> &rows) {
  if (rows.empty())
    return "no rows";
  for (const auto &r : rows) {
    std::string why = checkRow(r.flowId, r.accepted, r.verified,
                               r.note.empty() ? r.cosimNote : r.note,
                               !r.verdict.ok(), r.cosimRan, r.cosimOk,
                               r.cycles, r.cosimCycles);
    if (!why.empty())
      return why;
  }
  return "";
}

std::string rowDigest(const std::vector<core::FlowComparison> &rows) {
  std::string out;
  char buf[160];
  for (const auto &r : rows) {
    std::snprintf(buf, sizeof buf, ":%d%d %llu %.17g %.17g %llu;", r.accepted,
                  r.verified, static_cast<unsigned long long>(r.cycles),
                  r.areaTotal, r.fmaxMHz,
                  static_cast<unsigned long long>(r.cosimCycles));
    out += r.flowId + buf;
  }
  return out;
}

std::string checkResponse(const std::string &response,
                          std::uint64_t &simCycles) {
  serve::JsonValue doc = serve::JsonValue::makeNull();
  std::string error;
  if (!serve::parseJson(response, doc, error))
    return "unparsable response: " + error;
  std::string status = doc.stringOr("status", "");
  if (status != "ok")
    return "status " + status + ": " + doc.stringOr("error", "");
  const serve::JsonValue *rows = doc.find("rows");
  if (!rows || !rows->isArray() || rows->items().empty())
    return "response without rows";
  for (const auto &row : rows->items()) {
    std::string flow = row.stringOr("flow", "");
    auto num = [&](const char *key) {
      const serve::JsonValue *v = row.find(key);
      return v && v->isNumber() ? v->numberValue() : 0.0;
    };
    auto cycles = static_cast<std::uint64_t>(num("cycles"));
    auto cosimCycles = static_cast<std::uint64_t>(num("cosimCycles"));
    bool accepted = row.boolOr("accepted", false);
    bool verified = row.boolOr("verified", false);
    std::string why = checkRow(flow, accepted, verified,
                               row.stringOr("note", ""),
                               row.find("verdict") != nullptr,
                               row.boolOr("cosimRan", false),
                               row.boolOr("cosimOk", false), cycles,
                               cosimCycles);
    if (!why.empty())
      return why;
    simCycles += cosimCycles;
  }
  return "";
}

std::string responseCore(const std::string &response) {
  std::string core = response;
  // Fixed member order: {"id":...,"schema_version":...,...,"cache":{...},
  // "timing":{...}} (docs/SERVICE.md).
  std::size_t cut = core.rfind(",\"cache\":{");
  if (cut != std::string::npos)
    core = core.substr(0, cut) + "}";
  std::size_t schema = core.find("\"schema_version\"");
  if (core.rfind("{\"id\":", 0) == 0 && schema != std::string::npos)
    core = "{" + core.substr(schema);
  return core;
}

} // namespace c2hbench
