#include "support/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "support/check.hpp"
#include "support/thread_pool.hpp"

namespace dcnt {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Flags::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Flags::get_string(const std::string& key,
                              const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& key,
                            std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

Flags parse_known_flags(int argc, char** argv,
                        const std::vector<std::string>& known,
                        const std::string& usage) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage.c_str(), stdout);
      std::exit(0);
    }
  }
  Flags flags(argc, argv);
  for (const auto& [key, value] : flags.all()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      std::fprintf(stderr, "unknown flag --%s\n\n%s", key.c_str(),
                   usage.c_str());
      std::exit(2);
    }
  }
  return flags;
}

std::size_t threads_from_flags(const Flags& flags, const std::string& key) {
  const std::int64_t requested = flags.get_int(key, 0);
  DCNT_CHECK_MSG(requested >= 0, "--threads must be >= 0 (0 = auto)");
  return resolve_thread_count(static_cast<std::size_t>(requested));
}

}  // namespace dcnt
