#include "util/flags.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "util/logging.h"
#include "util/string_util.h"

namespace comparesets {

void FlagParser::AddInt(const std::string& name, int default_value,
                        const std::string& help) {
  flags_[name] = Flag{default_value, help};
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help) {
  flags_[name] = Flag{default_value, help};
}

void FlagParser::AddString(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  flags_[name] = Flag{default_value, help};
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help) {
  flags_[name] = Flag{default_value, help};
}

Status FlagParser::SetFromString(const std::string& name,
                                 const std::string& text) {
  auto it = flags_.find(name);
  if (it == flags_.end()) return Status::InvalidArgument("unknown flag: --" + name);
  Flag& flag = it->second;
  if (std::holds_alternative<int>(flag.value)) {
    char* end = nullptr;
    errno = 0;
    long v = std::strtol(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size() || text.empty()) {
      return Status::InvalidArgument("flag --" + name + " expects an int, got '" +
                                     text + "'");
    }
    if (errno == ERANGE || v < INT_MIN || v > INT_MAX) {
      return Status::InvalidArgument("flag --" + name +
                                     " is out of the int range, got '" + text +
                                     "'");
    }
    flag.value = static_cast<int>(v);
  } else if (std::holds_alternative<double>(flag.value)) {
    char* end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || text.empty()) {
      return Status::InvalidArgument("flag --" + name +
                                     " expects a double, got '" + text + "'");
    }
    flag.value = v;
  } else if (std::holds_alternative<bool>(flag.value)) {
    std::string lower = ToLower(text);
    if (lower == "true" || lower == "1" || lower == "yes") flag.value = true;
    else if (lower == "false" || lower == "0" || lower == "no") flag.value = false;
    else
      return Status::InvalidArgument("flag --" + name +
                                     " expects a bool, got '" + text + "'");
  } else {
    flag.value = text;
  }
  return Status::OK();
}

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(Usage(argv[0]).c_str(), stdout);
      help_requested_ = true;
      return Status::OK();
    }
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected positional argument: " + arg);
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      COMPARESETS_RETURN_NOT_OK(
          SetFromString(body.substr(0, eq), body.substr(eq + 1)));
      continue;
    }
    auto it = flags_.find(body);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag: --" + body);
    }
    if (std::holds_alternative<bool>(it->second.value)) {
      // Bare boolean flag enables it; allow an explicit following value too.
      if (i + 1 < argc && (std::string(argv[i + 1]) == "true" ||
                           std::string(argv[i + 1]) == "false")) {
        COMPARESETS_RETURN_NOT_OK(SetFromString(body, argv[++i]));
      } else {
        it->second.value = true;
      }
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag --" + body + " is missing a value");
    }
    COMPARESETS_RETURN_NOT_OK(SetFromString(body, argv[++i]));
  }
  return Status::OK();
}

int FlagParser::GetInt(const std::string& name) const {
  auto it = flags_.find(name);
  COMPARESETS_CHECK(it != flags_.end()) << "undefined flag " << name;
  return std::get<int>(it->second.value);
}

Result<size_t> FlagParser::GetCount(const std::string& name) const {
  int value = GetInt(name);
  if (value < 0) {
    return Status::InvalidArgument("--" + name + " must be >= 0, got " +
                                   std::to_string(value));
  }
  return static_cast<size_t>(value);
}

double FlagParser::GetDouble(const std::string& name) const {
  auto it = flags_.find(name);
  COMPARESETS_CHECK(it != flags_.end()) << "undefined flag " << name;
  return std::get<double>(it->second.value);
}

const std::string& FlagParser::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  COMPARESETS_CHECK(it != flags_.end()) << "undefined flag " << name;
  return std::get<std::string>(it->second.value);
}

bool FlagParser::GetBool(const std::string& name) const {
  auto it = flags_.find(name);
  COMPARESETS_CHECK(it != flags_.end()) << "undefined flag " << name;
  return std::get<bool>(it->second.value);
}

std::string FlagParser::Usage(const std::string& program) const {
  std::string out = "Usage: " + program + " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out += "  --" + name;
    if (std::holds_alternative<int>(flag.value)) {
      out += " (int, default " + std::to_string(std::get<int>(flag.value)) + ")";
    } else if (std::holds_alternative<double>(flag.value)) {
      out += " (double, default " + FormatDouble(std::get<double>(flag.value), 4) + ")";
    } else if (std::holds_alternative<bool>(flag.value)) {
      out += std::get<bool>(flag.value) ? " (bool, default true)"
                                        : " (bool, default false)";
    } else {
      out += " (string, default '" + std::get<std::string>(flag.value) + "')";
    }
    out += "\n      " + flag.help + "\n";
  }
  return out;
}

}  // namespace comparesets
