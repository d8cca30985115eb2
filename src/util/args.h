#ifndef INFLEX_UTIL_ARGS_H_
#define INFLEX_UTIL_ARGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace inflex {

/// \brief Minimal command-line parser for the inflex tools.
///
/// Grammar: positional arguments and `--key=value` / `--key value` options;
/// a `--key` followed by another option (or nothing) is a boolean flag.
/// Option names are registered implicitly by the first accessor that asks
/// for them; Validate() then rejects any option the program never asked
/// about, catching typos like `--topcs=8`.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Positional (non-option) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// True when `--name` was given (with or without a value).
  bool HasFlag(const std::string& name);

  /// String option with a default.
  std::string GetString(const std::string& name, const std::string& def);

  /// Integer option with a default; fails on non-numeric input and on a
  /// value outside the inclusive range [lo, hi] (including one that
  /// overflows int64). The default is returned unchecked.
  Result<int64_t> GetInt(const std::string& name, int64_t def,
                         int64_t lo = std::numeric_limits<int64_t>::min(),
                         int64_t hi = std::numeric_limits<int64_t>::max());

  /// Floating-point option with a default; fails on non-numeric input.
  Result<double> GetDouble(const std::string& name, double def);

  /// Comma-separated list of doubles (e.g. a topic mixture).
  Result<std::vector<double>> GetDoubleList(const std::string& name);

  /// Fails if the command line contains options never requested by any
  /// accessor. Call after all Get*/HasFlag calls.
  Status Validate() const;

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> requested_;
};

}  // namespace inflex

#endif  // INFLEX_UTIL_ARGS_H_
