// Command-line flags of every bench and of vcbench_cli's subcommands.
//
// A program reads each flag it knows through one Flags and then calls
// reject_unread(): the reads are the one list of what it accepts, so a
// mistyped, removed or stray argument exits 2 before any work instead of
// running silently ignored. A switch (has) stands alone; every other flag
// takes the next token as its value, and a value never starts with "--".
// Every failure prints "<flag>: <reason>" to stderr and exits 2.
#pragma once

#include <climits>
#include <string>
#include <vector>

namespace vc {

class Flags {
 public:
  /// The tokens argv[first..argc).
  Flags(int argc, char** argv, int first = 1);

  /// Whether the switch `name` is present.
  bool has(const char* name);
  /// The value of `name`, or `fallback` when the flag is absent.
  std::string text(const char* name, const std::string& fallback);
  /// The value of `name` as an int of at least `min`, or `fallback`.
  int integer(const char* name, int fallback, int min = INT_MIN);
  /// The value of `name` as a finite number, or `fallback`.
  double number(const char* name, double fallback);

  /// Exits 2 on the first token no read consumed: an unknown flag, a
  /// `--name=value`, a bare token, or a token after a switch. Call it after
  /// the last read and before any work.
  void reject_unread() const;

  /// The whole of `text` as an int of at least `min`; `flag` names it in
  /// the error (for one element of a list-valued flag).
  static int parse_integer(const char* flag, const std::string& text, int min = INT_MIN);

 private:
  /// Marks `name` read, with its value when `valued`, and returns the value
  /// (the name itself for a switch), or nullptr when absent. Exits 2 on a
  /// flag given twice and on a value that is missing or starts with "--".
  const std::string* read(const char* name, bool valued);

  std::vector<std::string> tokens_;
  std::vector<bool> read_;
};

}  // namespace vc
