#ifndef CLOUDJOIN_COMMON_FLAGS_H_
#define CLOUDJOIN_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cloudjoin {

/// Minimal `--key=value` / `--flag` command-line parser for the benchmark
/// harnesses, the examples and check_differential.
///
/// Each binary names the flags it accepts. An unknown `--name`, or a value
/// its getter cannot parse, is a usage error: the accepted names go to
/// stderr and the process exits with code 2, so a recipe that passes a
/// removed or misspelt flag fails instead of running with the default.
class Flags {
 public:
  /// Parses argv against `accepted` (names without the leading `--`).
  /// Arguments not starting with `--` are kept in order as positionals.
  Flags(int argc, char** argv, std::vector<std::string> accepted);

  /// String value of `--name=...`, or `fallback` if absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;

  /// Integer value of `--name=...`, or `fallback` if absent.
  int64_t GetInt(const std::string& name, int64_t fallback) const;

  /// Double value of `--name=...`, or `fallback` if absent.
  double GetDouble(const std::string& name, double fallback) const;

  /// True for `--name` or `--name=true/1/yes`, false for
  /// `--name=false/0/no`, `fallback` if absent.
  bool GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// The value of `--name`, or nullptr if absent. `name` must be accepted.
  const std::string* Find(const std::string& name) const;

  /// Prints `what` and the accepted names to stderr, then exits 2.
  [[noreturn]] void UsageError(const std::string& what) const;

  std::vector<std::string> accepted_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace cloudjoin

#endif  // CLOUDJOIN_COMMON_FLAGS_H_
