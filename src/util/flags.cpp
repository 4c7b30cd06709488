#include "util/flags.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace rasc::util {

namespace {

std::string basename_of(const char* path) {
  const std::string p = path;
  return p.substr(p.find_last_of('/') + 1);
}

std::string format_double(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = basename_of(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      record(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    // --no-name  -> name=false
    if (arg.rfind("no-", 0) == 0) {
      record(arg.substr(3), "false");
      continue;
    }
    // --name value (if the next token is not itself a flag), else boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      record(std::move(arg), argv[++i]);
    } else {
      record(std::move(arg), "true");
    }
  }
}

void Flags::record(std::string name, std::string value) {
  ++occurrences_[name];
  values_[std::move(name)] = std::move(value);
}

std::optional<std::string> Flags::raw(const std::string& name,
                                      std::string def) {
  if (!consumed_[name]) known_.emplace_back(name, std::move(def));
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) {
  const auto v = raw(name, std::to_string(def));
  if (!v) return def;
  try {
    return std::stoll(*v);
  } catch (const std::exception&) {
    throw FlagError("flag --" + name + ": not an integer: " + *v);
  }
}

double Flags::get_double(const std::string& name, double def) {
  const auto v = raw(name, format_double(def));
  if (!v) return def;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw FlagError("flag --" + name + ": not a number: " + *v);
  }
}

std::string Flags::get_string(const std::string& name,
                              const std::string& def) {
  const auto v = raw(name, def.empty() ? "\"\"" : def);
  return v ? *v : def;
}

bool Flags::get_bool(const std::string& name, bool def) {
  const auto v = raw(name, def ? "true" : "false");
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw FlagError("flag --" + name + ": not a boolean: " + *v);
}

std::vector<double> Flags::get_double_list(const std::string& name,
                                           std::vector<double> def) {
  std::string def_text;
  for (const double d : def) {
    def_text += (def_text.empty() ? "" : ",") + format_double(d);
  }
  const auto v = raw(name, def_text.empty() ? "\"\"" : def_text);
  if (!v) return def;
  std::vector<double> out;
  std::stringstream ss(*v);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    try {
      out.push_back(std::stod(tok));
    } catch (const std::exception&) {
      throw FlagError("flag --" + name + ": bad list element: " + tok);
    }
  }
  if (out.empty()) {
    throw FlagError("flag --" + name + ": empty list");
  }
  return out;
}

void Flags::finish() const {
  const auto help = values_.find("help");
  if (help != values_.end() && help->second != "false") {
    throw HelpRequested(usage());
  }
  std::string duplicate;
  for (const auto& [name, count] : occurrences_) {
    if (count > 1) {
      if (!duplicate.empty()) duplicate += ", ";
      duplicate += "--" + name;
    }
  }
  if (!duplicate.empty()) {
    // A silently-ignored first value is a debugging trap: refuse.
    throw FlagError("duplicate flags: " + duplicate);
  }
  std::string unknown;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!consumed_.count(name)) {
      if (!unknown.empty()) unknown += ", ";
      unknown += "--" + name;
    }
  }
  if (!unknown.empty()) {
    throw FlagError("unknown flags: " + unknown);
  }
}

std::string Flags::usage() const {
  std::string out = "usage: " + program_ + " [--flag=value ...]\n";
  for (const auto& [name, def] : known_) {
    out += "  --" + name + " (default " + def + ")\n";
  }
  return out;
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  const std::string program = argc > 0 ? basename_of(argv[0]) : "";
  try {
    return body(argc, argv);
  } catch (const HelpRequested& help) {
    std::fputs(help.what(), stdout);
    return 0;
  } catch (const FlagError& e) {
    std::fprintf(stderr, "%s: %s (see --help)\n", program.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", program.c_str(), e.what());
    return 1;
  }
}

}  // namespace rasc::util
