// A small command-line flag parser used by the dedukt CLI, the examples and
// the benchmark drivers. Supports --name=value, --name value, and boolean
// --flag forms.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dedukt/util/error.hpp"

namespace dedukt {

/// Parses flags of the form --name=value / --name value / --flag.
/// Positional arguments are collected in order. Every flag is kept, whether
/// or not the caller reads it: the dedukt CLI rejects the ones its
/// subcommand does not know via unknown_flags(), and the bench drivers
/// reject every flag but --trace the same way; the examples ignore them.
class CliParser {
 public:
  CliParser(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value of --name, or `fallback` if absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;

  /// Integer value of --name; throws ParseError on malformed input.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// Integer --name as the integral type T; throws ParseError on
  /// malformed input or a value T cannot hold (instead of letting the
  /// cast wrap it around).
  template <typename T>
  [[nodiscard]] T get_int_as(const std::string& name, T fallback) const {
    static_assert(std::is_integral_v<T>);
    if (!has(name)) return fallback;
    const std::int64_t v = get_int(name, 0);
    if (!std::in_range<T>(v)) {
      throw ParseError("flag --" + name + " expects an integer in [" +
                       std::to_string(std::numeric_limits<T>::min()) + ", " +
                       std::to_string(std::numeric_limits<T>::max()) +
                       "], got '" + get(name) + "'");
    }
    return static_cast<T>(v);
  }

  /// Count-valued --name as the unsigned type T (negative values are
  /// rejected like any other value T cannot hold).
  template <typename T>
  [[nodiscard]] T get_uint(const std::string& name, T fallback) const {
    static_assert(std::is_unsigned_v<T>);
    return get_int_as<T>(name, fallback);
  }

  /// Double value of --name; throws ParseError on malformed input.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// Boolean: present without value, or =true/=1/=yes → true; =false/=0/=no → false.
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const { return program_; }

  /// Flags given on the command line that are not in `known`, in name
  /// order.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      const std::set<std::string>& known) const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace dedukt
