#include "cli/trace_profile.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/stats.h"
#include "common/table.h"

namespace vc::cli {
namespace {

struct Span {
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  const std::string* name = nullptr;
};

struct NameAgg {
  std::size_t count = 0;
  std::int64_t total_us = 0;
  std::int64_t self_us = 0;
};

/// One (name, ph) row of the record table.
struct RecordAgg {
  std::size_t count = 0;
  RunningStats dur_us;  // spans only
  RunningStats value;   // args.value, any phase
};

struct Chain {
  const std::string* label = nullptr;  // source trace
  std::int64_t begin_us = 0;
  std::int64_t end_us = 0;
  std::size_t records = 0;
  double max_depth = 0.0;
};

/// Splits each span's duration into self vs nested-child time with a
/// containment stack over ts-sorted spans. A child's contribution to its
/// parent is clamped to the parent's window, so overlapping (non-nested)
/// spans can't drive self time negative.
void accumulate_self_times(std::vector<Span>& spans, std::map<std::string, NameAgg>& by_name) {
  std::stable_sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;  // parents (longer) before their children
  });
  struct Open {
    std::int64_t end_us = 0;
    std::int64_t child_us = 0;
    const Span* span = nullptr;
  };
  std::vector<Open> stack;
  auto close = [&](const Open& open) {
    NameAgg& agg = by_name[*open.span->name];
    ++agg.count;
    agg.total_us += open.span->dur_us;
    agg.self_us += std::max<std::int64_t>(0, open.span->dur_us - open.child_us);
    if (!stack.empty()) {
      // Credit this span's full window to the parent as child time (clamped
      // to the parent's remaining extent).
      const std::int64_t begin = open.span->ts_us;
      const std::int64_t end = std::min(open.end_us, stack.back().end_us);
      if (end > begin) stack.back().child_us += end - begin;
    }
  };
  for (const Span& span : spans) {
    while (!stack.empty() && span.ts_us >= stack.back().end_us) {
      const Open open = stack.back();
      stack.pop_back();
      close(open);
    }
    stack.push_back(Open{span.ts_us + span.dur_us, 0, &span});
  }
  while (!stack.empty()) {
    const Open open = stack.back();
    stack.pop_back();
    close(open);
  }
}

/// The record's numeric args.value, or nullptr.
const json::Value* arg_value(const json::Value& ev) {
  const json::Value* args = ev.find("args");
  if (args == nullptr || !args->is_object()) return nullptr;
  const json::Value* value = args->find("value");
  return value != nullptr && value->is_number() ? value : nullptr;
}

}  // namespace

RenderResult render_profile(const std::vector<TraceInput>& traces, const ProfileOptions& options) {
  RenderResult result;
  if (traces.empty()) {
    result.err = "profile: no trace files\n";
    result.exit_code = 2;
    return result;
  }

  std::map<std::string, NameAgg> by_name;
  std::map<std::pair<std::string, std::string>, RecordAgg> by_record;
  std::vector<Chain> chains;
  long long dropped_total = 0;
  long long recorded_total = 0;
  bool has_totals = false;
  std::size_t parsed = 0;

  // Interned span names must outlive the Span/Chain pointers into them.
  std::vector<std::unique_ptr<std::string>> names;
  std::map<std::string, const std::string*> name_index;
  auto intern = [&](const std::string& s) {
    auto [it, inserted] = name_index.try_emplace(s, nullptr);
    if (inserted) {
      names.push_back(std::make_unique<std::string>(s));
      it->second = names.back().get();
    }
    return it->second;
  };

  for (const TraceInput& input : traces) {
    json::Value root;
    try {
      root = json::parse(input.json_text);
    } catch (const std::exception& e) {
      result.err += input.label + ": " + e.what() + "\n";
      continue;
    }
    const json::Value* events = root.find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      result.err += input.label + ": no traceEvents array\n";
      continue;
    }
    ++parsed;
    const std::string* label = intern(input.label);

    std::vector<Span> spans;
    Chain current;
    bool in_chain = false;
    auto flush_chain = [&] {
      if (in_chain && current.records > 1) chains.push_back(current);
      in_chain = false;
    };
    for (const auto& ev : events->array_items) {
      if (!ev.is_object()) continue;
      const json::Value* name = ev.find("name");
      const json::Value* ph = ev.find("ph");
      if (name == nullptr || !name->is_string() || ph == nullptr || !ph->is_string()) continue;
      const json::Value* ts = ev.find("ts");
      const std::int64_t ts_us =
          ts != nullptr && ts->is_number() ? static_cast<std::int64_t>(ts->number_value) : 0;
      const json::Value* value = arg_value(ev);
      const bool span = ph->string_value == "X";
      if (name_matches(name->string_value, options.filter)) {
        const json::Value* dur = ev.find("dur");
        const double dur_us = dur != nullptr && dur->is_number() ? dur->number_value : 0.0;
        RecordAgg& agg = by_record[{name->string_value, ph->string_value}];
        ++agg.count;
        if (value != nullptr) agg.value.add(value->number_value);
        if (span) {
          agg.dur_us.add(dur_us);
          spans.push_back(
              Span{ts_us, static_cast<std::int64_t>(dur_us), intern(name->string_value)});
        }
      }
      // Busy chains: consecutive loop.exec records (file order == execution
      // order) whose post-dequeue depth stays > 0. Depth 0 means the loop
      // drained — the burst is over.
      if (name->string_value == "loop.exec") {
        const double depth = value != nullptr ? value->number_value : 0.0;
        if (depth > 0.0) {
          if (!in_chain) {
            current = Chain{};
            current.label = label;
            current.begin_us = ts_us;
            in_chain = true;
          }
          current.end_us = ts_us;
          ++current.records;
          current.max_depth = std::max(current.max_depth, depth);
        } else {
          if (in_chain) {
            // The draining record itself ends the chain.
            current.end_us = ts_us;
            ++current.records;
          }
          flush_chain();
        }
      }
    }
    flush_chain();
    accumulate_self_times(spans, by_name);

    const json::Value* other = root.find("otherData");
    if (other != nullptr && other->is_object()) {
      const json::Value* dropped = other->find("dropped_records");
      const json::Value* recorded = other->find("recorded");
      if (dropped != nullptr && dropped->is_number()) {
        dropped_total += static_cast<long long>(dropped->number_value);
        has_totals = true;
      }
      if (recorded != nullptr && recorded->is_number()) {
        recorded_total += static_cast<long long>(recorded->number_value);
      }
    }
  }
  if (parsed == 0) {
    result.exit_code = 2;
    return result;
  }

  if (dropped_total > 0) {
    result.out += "WARNING: trace ring wrapped — " + std::to_string(dropped_total) +
                  " record(s) dropped across the input; totals undercount early activity.\n"
                  "         Re-run with a larger Tracer capacity for a complete profile.\n";
  }
  result.out += "profile over " + std::to_string(parsed) + " trace(s)\n";
  if (has_totals) {
    result.out += "recorded " + std::to_string(recorded_total) + ", dropped " +
                  std::to_string(dropped_total) + " (ring wrap)\n";
  }

  // Hot spans by self time.
  std::vector<std::pair<const std::string*, const NameAgg*>> ranked;
  ranked.reserve(by_name.size());
  for (const auto& [name, agg] : by_name) ranked.emplace_back(&name, &agg);
  std::stable_sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second->self_us != b.second->self_us) return a.second->self_us > b.second->self_us;
    return a.second->total_us > b.second->total_us;
  });
  TextTable table{{"span", "count", "total (ms)", "self (ms)", "self %"}};
  std::int64_t self_sum = 0;
  for (const auto& [name, agg] : ranked) self_sum += agg->self_us;
  const std::size_t rows = std::min(options.top, ranked.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const NameAgg& agg = *ranked[i].second;
    table.add_row({*ranked[i].first, std::to_string(agg.count),
                   TextTable::num(static_cast<double>(agg.total_us) / 1000.0, 3),
                   TextTable::num(static_cast<double>(agg.self_us) / 1000.0, 3),
                   self_sum > 0
                       ? TextTable::num(100.0 * static_cast<double>(agg.self_us) /
                                            static_cast<double>(self_sum),
                                        1)
                       : "-"});
  }
  if (rows > 0) {
    result.out += "hot spans (by self time, sim-time ms)\n" + table.render();
    if (ranked.size() > rows) {
      result.out += "(" + std::to_string(ranked.size() - rows) + " more span name(s); raise --top)\n";
    }
  } else {
    result.out += "no spans matched\n";
  }

  // Every record by (name, phase): spans with their duration spread, and the
  // mean args.value of whatever carries one.
  if (!by_record.empty()) {
    TextTable records{{"name", "ph", "count", "dur mean (us)", "dur min", "dur max", "value mean"}};
    for (const auto& [key, agg] : by_record) {
      const bool span = key.second == "X";
      records.add_row({key.first, key.second, std::to_string(agg.count),
                       span ? TextTable::num(agg.dur_us.mean(), 1) : "-",
                       span ? TextTable::num(agg.dur_us.min(), 1) : "-",
                       span ? TextTable::num(agg.dur_us.max(), 1) : "-",
                       agg.value.count() > 0 ? TextTable::num(agg.value.mean(), 3) : "-"});
    }
    result.out += "records by name and phase (durations in sim-time us)\n" + records.render();
  }

  // Longest busy chains.
  std::stable_sort(chains.begin(), chains.end(), [](const Chain& a, const Chain& b) {
    const std::int64_t ea = a.end_us - a.begin_us;
    const std::int64_t eb = b.end_us - b.begin_us;
    if (ea != eb) return ea > eb;
    return a.records > b.records;
  });
  if (!chains.empty()) {
    TextTable chain_table{{"trace", "begin (ms)", "extent (ms)", "events", "max depth"}};
    const std::size_t n = std::min(options.chains, chains.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Chain& c = chains[i];
      chain_table.add_row({*c.label, TextTable::num(static_cast<double>(c.begin_us) / 1000.0, 3),
                           TextTable::num(static_cast<double>(c.end_us - c.begin_us) / 1000.0, 3),
                           std::to_string(c.records), TextTable::num(c.max_depth, 0)});
    }
    result.out += "busiest loop.exec chains (loop never drained)\n" + chain_table.render();
  }
  return result;
}

}  // namespace vc::cli
