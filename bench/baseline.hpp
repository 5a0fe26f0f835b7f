/// \file baseline.hpp
/// Reads a bench's recorded JSON results for `--check-against PATH`.
///
/// Every bench writes `{"experiment": ..., "rows": [{"key": ..., ...}]}`;
/// a baseline is such a file from an earlier run. This header parses it
/// with obs::json and hands back the rows. Each bench keeps its own
/// comparison rule.
#pragma once

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace ekbd::bench {

/// The `"rows"` array of the JSON file at `path`; std::nullopt when the
/// file is missing, does not parse, or has no `"rows"` array.
[[nodiscard]] inline std::optional<std::vector<obs::json::Value>> load_baseline_rows(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<obs::json::Value> doc = obs::json::parse(text.str());
  if (!doc || !doc->is_object()) return std::nullopt;
  const obs::json::Value* rows = doc->find("rows");
  if (rows == nullptr || !rows->is_array()) return std::nullopt;
  return rows->arr;
}

/// A row's `"key"` string ("" when absent).
[[nodiscard]] inline std::string row_key(const obs::json::Value& row) {
  const obs::json::Value* key = row.find("key");
  return key != nullptr && key->is_string() ? key->str : std::string();
}

}  // namespace ekbd::bench
