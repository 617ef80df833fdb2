// Small command-line option parser for the figure drivers and examples.
//
// Supports `--name value`, `--name=value`, and boolean flags. Unknown
// arguments and bad typed values (a non-number, a count or number outside
// its declared range, a choice outside its list) are an error that names
// the option, reported by parse() before the run starts: typos in sweep
// parameters must not be silently ignored — or crash a run — in an
// experiment harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace linkpad::util {

/// The values a typed number option accepts: from `lo` to `hi`, both ends
/// included, or both excluded when `open`.
struct NumRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool open = false;
};

/// Declarative command-line parser; declare options, then parse().
class ArgParser {
 public:
  /// `program` and `summary` appear in the --help text.
  ArgParser(std::string program, std::string summary);

  /// Declare a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);
  /// Declare a free-form string option with a default value.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Declare a typed integer option: the value is validated while parse()
  /// consumes argv, so a typo fails loudly at the command line instead of
  /// throwing at first access deep inside a run. The typed default appears
  /// in the generated --help.
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  /// Declare a typed count option: an integer ≥ `min` (sizes, windows,
  /// flows, threads). A smaller or negative value fails at parse time.
  void add_count(const std::string& name, std::size_t default_value,
                 const std::string& help, std::size_t min = 0);
  /// Declare a typed real-number option (same parse-time validation); a
  /// value outside `range` fails at parse time.
  void add_num(const std::string& name, double default_value,
               const std::string& help, NumRange range = {});
  /// Declare a string option restricted to `choices`; any other value fails
  /// at parse time. `default_value` must be one of the choices.
  void add_choice(const std::string& name, const std::string& default_value,
                  std::vector<std::string> choices, const std::string& help);

  /// Parse argv. Returns false (after printing a message) on error or when
  /// --help was requested; callers should then exit.
  bool parse(int argc, const char* const* argv);

  /// Accessors. Each typed accessor reads only options declared with its
  /// own add_* kind (num ↔ add_num, integer ↔ add_int, count ↔
  /// add_count) and throws std::invalid_argument on any other option; str
  /// returns any option's text.
  [[nodiscard]] bool flag(const std::string& name) const;
  [[nodiscard]] std::string str(const std::string& name) const;
  [[nodiscard]] double num(const std::string& name) const;
  [[nodiscard]] std::int64_t integer(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;

  /// Render the --help text.
  [[nodiscard]] std::string help() const;

 private:
  enum class Kind { kFlag, kString, kInt, kCount, kNum, kChoice };
  struct Spec {
    std::string help;
    std::string default_value;
    Kind kind = Kind::kString;
    std::vector<std::string> choices;  ///< kChoice only
    std::size_t min_count = 0;         ///< kCount only
    NumRange range{};                  ///< kNum only
  };
  const Spec& spec_for(const std::string& name) const;
  /// The value of a typed option, after checking it was declared `kind`.
  std::string typed_value(const std::string& name, Kind kind) const;
  void declare(const std::string& name, Spec spec);

  std::string program_;
  std::string summary_;
  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> order_;
};

}  // namespace linkpad::util
