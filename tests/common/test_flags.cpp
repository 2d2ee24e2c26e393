// vc::Flags, the one command-line reader of every bench and of vcbench_cli:
// one table of command lines fed to a gate bench's flag prologue. A line
// either parses to the listed values (in whatever order the reads run) or
// exits 2 with "<flag>: <reason>" on stderr.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/flags.h"

namespace vc {
namespace {

/// What the prologue reads: every kind of read, one of them with a minimum.
struct Read {
  int rounds = 7;
  int sessions = 1;
  double gate = 0.0;
  std::string out = "bench.report.json";
  bool paper = false;

  bool operator==(const Read&) const = default;
};

enum class Outcome { kParses, kBadValue, kUnread };

struct Case {
  std::vector<std::string> args;  // after argv[0]
  Outcome outcome;
  Read want;                  // kParses
  const char* error = "";     // otherwise: the stderr line, as a regex
};

const Case kCases[] = {
    {{}, Outcome::kParses, {}},
    {{"--paper"}, Outcome::kParses, {.paper = true}},
    {{"--rounds", "3", "--gate", "0.98", "--paper", "--out", "odd.json", "--sessions", "4"},
     Outcome::kParses,
     {3, 4, 0.98, "odd.json", true}},
    {{"--gate", "1e-1"}, Outcome::kParses, {.gate = 0.1}},
    // A negative value is a value, not a flag.
    {{"--rounds", "-2"}, Outcome::kParses, {.rounds = -2}},
    {{"--out", "g.json"}, Outcome::kParses, {.out = "g.json"}},

    {{"--gate", "abc"}, Outcome::kBadValue, {}, "--gate: 'abc' is not a number"},
    {{"--gate", "0.98x"}, Outcome::kBadValue, {}, "'0.98x' is not a number"},
    {{"--gate", " 0.98"}, Outcome::kBadValue, {}, "is not a number"},
    {{"--gate", ""}, Outcome::kBadValue, {}, "--gate: '' is not a number"},
    {{"--gate", "nan"}, Outcome::kBadValue, {}, "'nan' is not a number"},
    {{"--gate", "inf"}, Outcome::kBadValue, {}, "'inf' is not a number"},
    {{"--gate", "1e999"}, Outcome::kBadValue, {}, "'1e999' is not a number"},
    {{"--rounds", "five"}, Outcome::kBadValue, {}, "--rounds: 'five' is not an integer"},
    {{"--rounds", "5.5"}, Outcome::kBadValue, {}, "is not an integer"},
    {{"--rounds", "99999999999"}, Outcome::kBadValue, {}, "is not an integer"},
    {{"--sessions", "0"}, Outcome::kBadValue, {}, "--sessions: '0' is below 1"},
    {{"--rounds"}, Outcome::kBadValue, {}, "--rounds: missing value"},
    // A flag name is never a value: --out must not swallow --rounds.
    {{"--out", "--rounds", "3"}, Outcome::kBadValue, {}, "--out: missing value"},
    {{"--rounds", "3", "--rounds", "4"}, Outcome::kBadValue, {}, "--rounds: given more than once"},

    // A mistyped gate must not run with the gate silently off, and the
    // unsupported `--name=value` form must not fall back to defaults.
    {{"--rounds", "3", "--trace_gate", "0.98"}, Outcome::kUnread, {}, "--trace_gate: unknown flag"},
    {{"--rounds=3"}, Outcome::kUnread, {}, "--rounds=3: unknown flag"},
    {{"stray"}, Outcome::kUnread, {}, "stray: unexpected argument"},
    {{"--rounds", "3", "stray"}, Outcome::kUnread, {}, "stray: unexpected argument"},
    // A switch takes no value.
    {{"--paper", "stray"}, Outcome::kUnread, {}, "stray: unexpected argument"},
};

/// A gate bench's prologue over `args`: every read (in order, or reversed),
/// then reject_unread().
Read read_all(std::vector<std::string> args, bool reversed = false) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  Flags flags{static_cast<int>(argv.size()), argv.data()};
  Read r;
  std::vector<std::function<void()>> reads = {
      [&] { r.rounds = flags.integer("--rounds", 7); },
      [&] { r.sessions = flags.integer("--sessions", 1, /*min=*/1); },
      [&] { r.gate = flags.number("--gate", 0.0); },
      [&] { r.out = flags.text("--out", "bench.report.json"); },
      [&] { r.paper = flags.has("--paper"); },
  };
  if (reversed) std::reverse(reads.begin(), reads.end());
  for (const auto& read : reads) read();
  flags.reject_unread();
  return r;
}

std::string line(const Case& c) {
  std::string out = "bench";
  for (const auto& a : c.args) out += " '" + a + "'";
  return out;
}

TEST(Flags, WellFormedValuesAndFallbacksParse) {
  for (const Case& c : kCases) {
    if (c.outcome != Outcome::kParses) continue;
    const Read r = read_all(c.args);
    EXPECT_EQ(r.rounds, c.want.rounds) << line(c);
    EXPECT_EQ(r.sessions, c.want.sessions) << line(c);
    EXPECT_DOUBLE_EQ(r.gate, c.want.gate) << line(c);
    EXPECT_EQ(r.out, c.want.out) << line(c);
    EXPECT_EQ(r.paper, c.want.paper) << line(c);
  }
  EXPECT_EQ(Flags::parse_integer("--fleets", "4"), 4);
}

TEST(Flags, ReadFlagsPassTheUnreadCheck) {
  // The reads are the one list: their order changes nothing.
  for (const Case& c : kCases) {
    if (c.outcome != Outcome::kParses) continue;
    EXPECT_TRUE(read_all(c.args, true) == c.want) << line(c);
  }
}

TEST(FlagsDeathTest, MalformedValuesExitTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const Case& c : kCases) {
    if (c.outcome != Outcome::kBadValue) continue;
    EXPECT_EXIT(read_all(c.args), ::testing::ExitedWithCode(2), c.error) << line(c);
  }
  EXPECT_EXIT(Flags::parse_integer("--fleets", "2x"), ::testing::ExitedWithCode(2),
              "--fleets: '2x' is not an integer");
}

TEST(FlagsDeathTest, UnreadFlagsExitTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const Case& c : kCases) {
    if (c.outcome != Outcome::kUnread) continue;
    EXPECT_EXIT(read_all(c.args), ::testing::ExitedWithCode(2), c.error) << line(c);
  }
}

}  // namespace
}  // namespace vc
