// Tiny command-line flag parser for bench binaries and examples.
//
// Supports --name=value, --name value, and boolean --name / --no-name
// (--no-name is false for get_bool("name"), true for get_bool("no-name")).
// Unknown and repeated flags are errors (catches typos and
// copy-paste-doubled overrides in sweep scripts). --help lists every flag
// the program asked about, with its default.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace rasc::util {

/// A malformed, unknown or repeated command-line flag.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown by Flags::finish() when the command line holds --help; what() is
/// the usage text. Not an error: run_main() prints it and exits 0.
class HelpRequested : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Flags {
 public:
  /// Parses argv. Throws FlagError on malformed or unknown flags once
  /// `finish()` is called (parsing itself records everything).
  Flags(int argc, const char* const* argv);

  /// Typed getters; each marks the flag as known and lists it, with `def`,
  /// in the --help text. `def` is returned when the flag is absent.
  std::int64_t get_int(const std::string& name, std::int64_t def);
  double get_double(const std::string& name, double def);
  std::string get_string(const std::string& name, const std::string& def);
  bool get_bool(const std::string& name, bool def);

  /// Comma-separated list of doubles, e.g. --rates=50,100,150,200.
  std::vector<double> get_double_list(const std::string& name,
                                      std::vector<double> def);

  /// Call after all getters: throws HelpRequested when --help was given,
  /// else FlagError listing any flag the program never asked about, and
  /// any flag given more than once.
  void finish() const;

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// Marks `name` as known, remembers `def` for the usage text, and
  /// returns the flag's value if it was given.
  std::optional<std::string> raw(const std::string& name, std::string def);

  void record(std::string name, std::string value);

  std::string usage() const;

  std::string program_;
  /// Every flag the program asked about, in order, with its default.
  std::vector<std::pair<std::string, std::string>> known_;
  std::map<std::string, std::string> values_;
  std::map<std::string, int> occurrences_;
  std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
};

/// Runs a program's `body` and turns what it throws into an exit code:
/// HelpRequested prints the usage to stdout and exits 0; FlagError (a bad
/// command line) prints the message to stderr and exits 2; any other
/// std::exception prints the message and exits 1.
int run_main(int argc, char** argv,
             const std::function<int(int, char**)>& body);

}  // namespace rasc::util
