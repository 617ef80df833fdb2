#include "util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/check.hpp"

namespace linkpad::util {

namespace {

/// Strict whole-string parses; nullopt on any trailing junk. parse()
/// validates every typed value with these, so the typed accessors can
/// rely on them succeeding.
std::optional<std::int64_t> parse_integer_text(const std::string& text) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(text, &used);
    if (used != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<double> parse_number_text(const std::string& text) {
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    if (used != text.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// " in (lo, hi)" / " in [lo, hi]" for a declared range; empty when the
/// range is the whole real line.
std::string describe(const NumRange& range) {
  if (!std::isfinite(range.lo) && !std::isfinite(range.hi)) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf), " in %c%g, %g%c", range.open ? '(' : '[',
                range.lo, range.hi, range.open ? ')' : ']');
  return buf;
}

bool contains(const NumRange& range, double v) {
  return range.open ? range.lo < v && v < range.hi
                    : range.lo <= v && v <= range.hi;
}

std::string join_choices(const std::vector<std::string>& choices) {
  std::string out;
  for (const auto& c : choices) out += (out.empty() ? "" : "|") + c;
  return out;
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void ArgParser::declare(const std::string& name, Spec spec) {
  LINKPAD_EXPECTS(name.rfind("--", 0) == 0);
  LINKPAD_EXPECTS(!specs_.count(name));
  specs_[name] = std::move(spec);
  order_.push_back(name);
}

void ArgParser::add_flag(const std::string& name, const std::string& help_text) {
  declare(name, Spec{help_text, "false", Kind::kFlag, {}});
}

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help_text) {
  declare(name, Spec{help_text, default_value, Kind::kString, {}});
}

void ArgParser::add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help_text) {
  declare(name,
          Spec{help_text, std::to_string(default_value), Kind::kInt, {}});
}

void ArgParser::add_count(const std::string& name, std::size_t default_value,
                          const std::string& help_text, std::size_t min) {
  LINKPAD_EXPECTS(default_value >= min);
  declare(name, Spec{help_text, std::to_string(default_value), Kind::kCount,
                     {}, min});
}

void ArgParser::add_num(const std::string& name, double default_value,
                        const std::string& help_text, NumRange range) {
  LINKPAD_EXPECTS(contains(range, default_value));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", default_value);
  declare(name, Spec{help_text, buf, Kind::kNum, {}, 0, range});
}

void ArgParser::add_choice(const std::string& name,
                           const std::string& default_value,
                           std::vector<std::string> choices,
                           const std::string& help_text) {
  LINKPAD_EXPECTS(std::find(choices.begin(), choices.end(), default_value) !=
                  choices.end());
  declare(name,
          Spec{help_text, default_value, Kind::kChoice, std::move(choices)});
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help();
      return false;
    }
    std::string name = arg;
    std::optional<std::string> inline_value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    auto it = specs_.find(name);
    if (it == specs_.end()) {
      std::cerr << program_ << ": unknown argument '" << arg << "'\n"
                << "Run with --help for usage.\n";
      return false;
    }
    if (it->second.kind == Kind::kFlag) {
      if (inline_value) {
        std::cerr << program_ << ": flag '" << name << "' takes no value\n";
        return false;
      }
      values_[name] = "true";
    } else if (inline_value) {
      values_[name] = *inline_value;
    } else {
      if (i + 1 >= argc) {
        std::cerr << program_ << ": option '" << name << "' needs a value\n";
        return false;
      }
      values_[name] = argv[++i];
    }
    // Typed options are validated HERE, while the offending token is still
    // attributable to the command line — not at first accessor use.
    const std::string& value = values_[name];
    const Spec& spec = it->second;
    std::string problem;
    if (spec.kind == Kind::kInt && !parse_integer_text(value)) {
      problem = "is not an integer";
    } else if (spec.kind == Kind::kCount &&
               parse_integer_text(value).value_or(-1) <
                   static_cast<std::int64_t>(spec.min_count)) {
      problem = "is not an integer >= " + std::to_string(spec.min_count);
    } else if (spec.kind == Kind::kNum &&
               !contains(spec.range, parse_number_text(value).value_or(NAN))) {
      problem = "is not a number" + describe(spec.range);
    } else if (spec.kind == Kind::kChoice &&
               std::find(spec.choices.begin(), spec.choices.end(), value) ==
                   spec.choices.end()) {
      problem = "is not one of " + join_choices(spec.choices);
    }
    if (!problem.empty()) {
      std::cerr << program_ << ": option '" << name << "': '" << value
                << "' " << problem << "\n";
      return false;
    }
  }
  return true;
}

const ArgParser::Spec& ArgParser::spec_for(const std::string& name) const {
  auto it = specs_.find(name);
  if (it == specs_.end()) {
    throw std::invalid_argument("undeclared option: " + name);
  }
  return it->second;
}

bool ArgParser::flag(const std::string& name) const {
  const Spec& spec = spec_for(name);
  LINKPAD_EXPECTS(spec.kind == Kind::kFlag);
  auto it = values_.find(name);
  return it != values_.end() && it->second == "true";
}

std::string ArgParser::str(const std::string& name) const {
  const Spec& spec = spec_for(name);
  auto it = values_.find(name);
  return it != values_.end() ? it->second : spec.default_value;
}

std::string ArgParser::typed_value(const std::string& name, Kind kind) const {
  if (spec_for(name).kind != kind) {
    throw std::invalid_argument("option " + name +
                                " is not declared with this accessor's type");
  }
  return str(name);
}

double ArgParser::num(const std::string& name) const {
  return *parse_number_text(typed_value(name, Kind::kNum));
}

std::int64_t ArgParser::integer(const std::string& name) const {
  return *parse_integer_text(typed_value(name, Kind::kInt));
}

std::size_t ArgParser::count(const std::string& name) const {
  return static_cast<std::size_t>(
      *parse_integer_text(typed_value(name, Kind::kCount)));
}

std::string ArgParser::help() const {
  std::ostringstream out;
  out << program_ << " — " << summary_ << "\n\nOptions:\n";
  for (const auto& name : order_) {
    const Spec& spec = specs_.at(name);
    out << "  " << name;
    switch (spec.kind) {
      case Kind::kFlag: break;
      case Kind::kString: out << " <value = " << spec.default_value << ">"; break;
      case Kind::kInt: out << " <int = " << spec.default_value << ">"; break;
      case Kind::kCount:
        out << " <count = " << spec.default_value << ">";
        break;
      case Kind::kNum: out << " <num = " << spec.default_value << ">"; break;
      case Kind::kChoice:
        out << " <" << join_choices(spec.choices) << " = "
            << spec.default_value << ">";
        break;
    }
    out << "\n      " << spec.help << "\n";
  }
  out << "  --help\n      Show this message.\n";
  return out.str();
}

}  // namespace linkpad::util
