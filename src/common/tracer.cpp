#include "common/tracer.h"

#include <cstdio>

#include "common/json.h"

namespace vc {
namespace {

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out += buf;
}

void append_value(std::string& out, float v) {
  // 9 significant digits round-trip any float; integral values (the common
  // case — batch sizes, queue depths) print without an exponent or trailing
  // zeros. Locale-independent via json::format_number.
  out += json::format_number(static_cast<double>(v), 9);
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

const char* Tracer::intern(const std::string& name) {
  for (const std::string& s : interned_) {
    if (s == name) return s.c_str();
  }
  interned_.push_back(name);
  return interned_.back().c_str();
}

void Tracer::clear() {
  head_ = 0;
  total_ = 0;
  span_count_ = 0;
  instant_count_ = 0;
  counter_count_ = 0;
}

std::string Tracer::to_chrome_json() const {
  std::string out;
  out.reserve(64 + size() * 96);
  out += "{\"traceEvents\":[";
  bool first = true;
  for_each([&](const Record& r) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    json::append_escaped(out, r.name);
    out += "\",\"ph\":\"";
    switch (r.phase) {
      case Phase::kSpan: out += 'X'; break;
      case Phase::kInstant: out += 'i'; break;
      case Phase::kCounter: out += 'C'; break;
    }
    out += "\",\"ts\":";
    append_i64(out, r.ts_us);
    if (r.phase == Phase::kSpan) {
      out += ",\"dur\":";
      append_i64(out, r.dur_us);
    }
    out += ",\"pid\":1,\"tid\":1";
    if (r.phase == Phase::kInstant) {
      out += ",\"s\":\"t\"";
    }
    out += ",\"args\":{\"value\":";
    append_value(out, r.value);
    out += "}}";
  });
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"sim_us\","
         "\"dropped_records\":";
  append_i64(out, static_cast<std::int64_t>(dropped()));
  out += ",\"recorded\":";
  append_i64(out, static_cast<std::int64_t>(recorded()));
  out += "}}";
  return out;
}

}  // namespace vc
