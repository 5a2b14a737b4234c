// Tiny command-line flag parser for the benchmark and example binaries.
//
//   FlagParser flags;
//   flags.AddInt("scale", 100, "number of problem instances");
//   flags.AddString("dataset", "cellphone", "category to generate");
//   COMPARESETS_CHECK(flags.Parse(argc, argv).ok());
//   int scale = flags.GetInt("scale");
//
// Accepted syntax: --name=value, --name value, and bare --name for bools.

#pragma once

#include <map>
#include <string>
#include <variant>
#include <vector>

#include "util/status.h"

namespace comparesets {

class FlagParser {
 public:
  void AddInt(const std::string& name, int default_value,
              const std::string& help);
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help);
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);
  void AddBool(const std::string& name, bool default_value,
               const std::string& help);

  /// Parses argv; unknown flags are errors. `--help` prints usage and
  /// reports it via `help_requested()`.
  Status Parse(int argc, char** argv);

  int GetInt(const std::string& name) const;
  /// An int flag read as a count (threads, capacities, retries):
  /// refuses a negative value with InvalidArgument.
  Result<size_t> GetCount(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  const std::string& GetString(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  bool help_requested() const { return help_requested_; }

  /// Usage text listing all flags with defaults.
  std::string Usage(const std::string& program) const;

 private:
  struct Flag {
    std::variant<int, double, std::string, bool> value;
    std::string help;
  };

  Status SetFromString(const std::string& name, const std::string& text);

  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
};

}  // namespace comparesets
