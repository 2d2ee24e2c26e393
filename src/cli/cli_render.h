// Shared types for the CLI rendering library.
//
// vcbench_cli's analysis subcommands (report / profile / timeline)
// render through these pure functions: file contents in, formatted text out,
// no I/O. That keeps every renderer unit-testable against canned inputs —
// including old-format run reports from earlier PRs, which must keep
// rendering (missing optional sections are skipped, not errors).
#pragma once

#include <algorithm>
#include <cctype>
#include <string>

namespace vc::cli {

/// What a subcommand would do: text for stdout, text for stderr, and the
/// process exit code. Exit 2 means the input itself was unusable (unreadable
/// file, malformed JSON); a readable report that merely lacks a section
/// renders what it has and exits 0.
struct RenderResult {
  int exit_code = 0;
  std::string out;
  std::string err;
};

/// Case-insensitive substring match so `--filter zoom` finds "Zoom/n3/...".
inline bool name_matches(const std::string& name, const std::string& filter) {
  if (filter.empty()) return true;
  auto lower = [](std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
  };
  return lower(name).find(lower(filter)) != std::string::npos;
}

}  // namespace vc::cli
