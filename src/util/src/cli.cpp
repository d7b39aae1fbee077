#include "dedukt/util/cli.hpp"

#include <cerrno>
#include <cstdlib>

#include "dedukt/util/error.hpp"

namespace dedukt {

CliParser::CliParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "";  // boolean flag
    }
  }
}

bool CliParser::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliParser::get(const std::string& name,
                           const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    throw ParseError("flag --" + name + " expects an integer, got '" +
                     it->second + "'");
  }
  return v;
}

double CliParser::get_double(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    throw ParseError("flag --" + name + " expects a number, got '" +
                     it->second + "'");
  }
  return v;
}

bool CliParser::get_bool(const std::string& name, bool fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw ParseError("flag --" + name + " expects a boolean, got '" + v + "'");
}

std::vector<std::string> CliParser::unknown_flags(
    const std::set<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [name, value] : flags_) {
    if (known.count(name) == 0) unknown.push_back(name);
  }
  return unknown;
}

}  // namespace dedukt
