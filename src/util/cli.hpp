#pragma once
// Minimal command-line flag parsing for the example binaries.
// Supports `--name value`, `--name=value` and boolean `--name`.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wdag::util {

/// Parsed command line: flags plus positional arguments.
class Cli {
 public:
  /// Parses argv; throws wdag::InvalidArgument on malformed flags.
  Cli(int argc, const char* const* argv);

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

  /// True when `--name` was present (with or without value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// String flag with default.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;

  /// Integer flag with default; throws on non-numeric values.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// Double flag with default; throws on non-numeric values.
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;

  /// Every flag given, by name (without the leading `--`).
  [[nodiscard]] const std::map<std::string, std::string>& flags() const {
    return flags_;
  }

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace wdag::util
