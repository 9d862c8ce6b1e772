#ifndef HIDO_COMMON_FLAGS_H_
#define HIDO_COMMON_FLAGS_H_

// Minimal command-line flag parser for the hido CLI tool. Supports
// --name=value and --name value forms, boolean flags (--flag / --flag=false),
// typed defaults, required flags, and generated help text. Unrecognized
// flags are errors; non-flag tokens are collected as positional arguments.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace hido {

/// Declarative flag set: declare flags, Parse(argv), then read values.
class FlagParser {
 public:
  /// `program` and `description` feed the Help() banner.
  FlagParser(std::string program, std::string description);

  /// Declares a flag of each supported type. `name` without leading dashes.
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help, bool required = false);
  /// Registers an integer flag.
  void AddInt(const std::string& name, int64_t default_value,
              const std::string& help, bool required = false);
  /// Registers a floating-point flag.
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help, bool required = false);
  /// Registers a boolean flag (--name / --name=false).
  void AddBool(const std::string& name, bool default_value,
               const std::string& help);

  /// Parses `args` (argv[1..] style; exclude the program name). Fails on
  /// unknown flags, malformed values, or missing required flags.
  Status Parse(const std::vector<std::string>& args);

  /// Typed accessors; abort on unknown name or type mismatch (programmer
  /// error — the flag must have been declared with the matching Add*).
  std::string GetString(const std::string& name) const;  ///< typed lookup
  int64_t GetInt(const std::string& name) const;         ///< typed lookup
  double GetDouble(const std::string& name) const;       ///< typed lookup
  bool GetBool(const std::string& name) const;           ///< typed lookup

  /// Tokens that were not flags, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Usage text listing every declared flag with default and help.
  std::string Help() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Flag {
    Type type;
    std::string help;
    bool required = false;
    bool set = false;
    std::string string_value;
    int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
  };

  const Flag& Get(const std::string& name, Type type) const;
  Status SetValue(const std::string& name, const std::string& value);

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace hido

#endif  // HIDO_COMMON_FLAGS_H_
