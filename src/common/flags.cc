#include "common/flags.h"

#include <algorithm>
#include <cctype>

#include "common/macros.h"
#include "common/string_util.h"

namespace hido {

FlagParser::FlagParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void FlagParser::AddString(const std::string& name,
                           const std::string& default_value,
                           const std::string& help, bool required) {
  HIDO_CHECK_MSG(!flags_.contains(name), "duplicate flag --%s", name.c_str());
  Flag flag;
  flag.type = Type::kString;
  flag.help = help;
  flag.required = required;
  flag.string_value = default_value;
  flags_.emplace(name, std::move(flag));
}

void FlagParser::AddInt(const std::string& name, int64_t default_value,
                        const std::string& help, bool required) {
  HIDO_CHECK_MSG(!flags_.contains(name), "duplicate flag --%s", name.c_str());
  Flag flag;
  flag.type = Type::kInt;
  flag.help = help;
  flag.required = required;
  flag.int_value = default_value;
  flags_.emplace(name, std::move(flag));
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help, bool required) {
  HIDO_CHECK_MSG(!flags_.contains(name), "duplicate flag --%s", name.c_str());
  Flag flag;
  flag.type = Type::kDouble;
  flag.help = help;
  flag.required = required;
  flag.double_value = default_value;
  flags_.emplace(name, std::move(flag));
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help) {
  HIDO_CHECK_MSG(!flags_.contains(name), "duplicate flag --%s", name.c_str());
  Flag flag;
  flag.type = Type::kBool;
  flag.help = help;
  flag.bool_value = default_value;
  flags_.emplace(name, std::move(flag));
}

Status FlagParser::SetValue(const std::string& name,
                            const std::string& value) {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  Flag& flag = it->second;
  switch (flag.type) {
    case Type::kString:
      flag.string_value = value;
      break;
    case Type::kInt: {
      const Result<int64_t> parsed = ParseInt(value);
      if (!parsed.ok()) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects an integer, got '" + value +
                                       "'");
      }
      flag.int_value = parsed.value();
      break;
    }
    case Type::kDouble: {
      const Result<double> parsed = ParseDouble(value);
      if (!parsed.ok()) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a number, got '" + value +
                                       "'");
      }
      flag.double_value = parsed.value();
      break;
    }
    case Type::kBool: {
      std::string lower;
      for (char c : value) {
        lower.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      }
      if (lower == "true" || lower == "1" || lower == "yes") {
        flag.bool_value = true;
      } else if (lower == "false" || lower == "0" || lower == "no") {
        flag.bool_value = false;
      } else {
        return Status::InvalidArgument("flag --" + name +
                                       " expects true/false, got '" + value +
                                       "'");
      }
      break;
    }
  }
  flag.set = true;
  return Status::Ok();
}

Status FlagParser::Parse(const std::vector<std::string>& args) {
  positional_.clear();
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      HIDO_RETURN_IF_ERROR(SetValue(body.substr(0, eq), body.substr(eq + 1)));
      continue;
    }
    // --name value form; bool flags may omit the value.
    const auto it = flags_.find(body);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + body);
    }
    if (it->second.type == Type::kBool) {
      // Peek: an explicit true/false may follow, otherwise implicit true.
      if (i + 1 < args.size() &&
          (args[i + 1] == "true" || args[i + 1] == "false")) {
        HIDO_RETURN_IF_ERROR(SetValue(body, args[++i]));
      } else {
        HIDO_RETURN_IF_ERROR(SetValue(body, "true"));
      }
      continue;
    }
    if (i + 1 >= args.size()) {
      return Status::InvalidArgument("flag --" + body + " is missing a value");
    }
    HIDO_RETURN_IF_ERROR(SetValue(body, args[++i]));
  }
  for (const auto& [name, flag] : flags_) {
    if (flag.required && !flag.set) {
      return Status::InvalidArgument("required flag --" + name +
                                     " was not provided");
    }
  }
  return Status::Ok();
}

const FlagParser::Flag& FlagParser::Get(const std::string& name,
                                        Type type) const {
  const auto it = flags_.find(name);
  HIDO_CHECK_MSG(it != flags_.end(), "undeclared flag --%s", name.c_str());
  HIDO_CHECK_MSG(it->second.type == type, "flag --%s accessed as wrong type",
                 name.c_str());
  return it->second;
}

std::string FlagParser::GetString(const std::string& name) const {
  return Get(name, Type::kString).string_value;
}

int64_t FlagParser::GetInt(const std::string& name) const {
  return Get(name, Type::kInt).int_value;
}

double FlagParser::GetDouble(const std::string& name) const {
  return Get(name, Type::kDouble).double_value;
}

bool FlagParser::GetBool(const std::string& name) const {
  return Get(name, Type::kBool).bool_value;
}

std::string FlagParser::Help() const {
  std::string out = program_ + " — " + description_ + "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    std::string default_text;
    switch (flag.type) {
      case Type::kString:
        default_text = "\"" + flag.string_value + "\"";
        break;
      case Type::kInt:
        default_text = StrFormat("%lld",
                                 static_cast<long long>(flag.int_value));
        break;
      case Type::kDouble:
        default_text = StrFormat("%g", flag.double_value);
        break;
      case Type::kBool:
        default_text = flag.bool_value ? "true" : "false";
        break;
    }
    out += StrFormat("  --%-18s %s (default: %s%s)\n", name.c_str(),
                     flag.help.c_str(), default_text.c_str(),
                     flag.required ? ", required" : "");
  }
  return out;
}

}  // namespace hido
