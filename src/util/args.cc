#include "util/args.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>

namespace inflex {

namespace {
bool IsOption(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}
}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!IsOption(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !IsOption(argv[i + 1])) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";  // boolean flag
    }
  }
}

bool ArgParser::HasFlag(const std::string& name) {
  requested_[name] = true;
  return options_.count(name) > 0;
}

std::string ArgParser::GetString(const std::string& name,
                                 const std::string& def) {
  requested_[name] = true;
  auto it = options_.find(name);
  return it == options_.end() ? def : it->second;
}

Result<int64_t> ArgParser::GetInt(const std::string& name, int64_t def,
                                  int64_t lo, int64_t hi) {
  requested_[name] = true;
  auto it = options_.find(name);
  if (it == options_.end()) return def;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("--" + name + " expects an integer, got '" +
                                   it->second + "'");
  }
  if (errno == ERANGE || v < lo || v > hi) {
    return Status::InvalidArgument(
        "--" + name + " must be in [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "], got '" + it->second + "'");
  }
  return static_cast<int64_t>(v);
}

Result<double> ArgParser::GetDouble(const std::string& name, double def) {
  requested_[name] = true;
  auto it = options_.find(name);
  if (it == options_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("--" + name + " expects a number, got '" +
                                   it->second + "'");
  }
  return v;
}

Result<std::vector<double>> ArgParser::GetDoubleList(const std::string& name) {
  requested_[name] = true;
  auto it = options_.find(name);
  if (it == options_.end()) {
    return Status::InvalidArgument("missing required option --" + name);
  }
  std::vector<double> out;
  std::stringstream ss(it->second);
  std::string token;
  while (std::getline(ss, token, ',')) {
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      return Status::InvalidArgument("--" + name +
                                     " expects comma-separated numbers");
    }
    out.push_back(v);
  }
  if (out.empty()) {
    return Status::InvalidArgument("--" + name + " is empty");
  }
  return out;
}

Status ArgParser::Validate() const {
  for (const auto& [key, value] : options_) {
    (void)value;
    if (requested_.count(key) == 0) {
      return Status::InvalidArgument("unknown option --" + key);
    }
  }
  return Status::OK();
}

}  // namespace inflex
