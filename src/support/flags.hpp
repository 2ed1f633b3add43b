// Minimal --key=value command-line parsing for examples and benches.
// Not a general-purpose flag library: just enough to parameterize the
// experiment binaries (seed, n, k, counter kind, ...).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dcnt {

class Flags {
 public:
  /// Parses argv of the form --key=value or --key value or bare --key
  /// (boolean true). Unrecognized positional arguments are an error.
  Flags(int argc, char** argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::map<std::string, std::string>& all() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

/// Parses argv for a binary with a fixed flag vocabulary. `--help` or
/// `-h` anywhere prints `usage` to stdout and exits 0; a key outside
/// `known` prints "unknown flag --KEY" and `usage` to stderr and exits
/// 2, so a typo'd or retired flag fails loudly instead of being
/// ignored. Otherwise returns the parsed flags.
Flags parse_known_flags(int argc, char** argv,
                        const std::vector<std::string>& known,
                        const std::string& usage);

/// The process-wide thread-count knob, shared by every binary that
/// spins up workers (thread pools, the threaded runtime, benches):
/// `--threads=N` on the command line wins; `--threads=0` or no flag
/// means auto (the DCNT_THREADS environment variable if set, else all
/// hardware threads). Always returns at least 1.
std::size_t threads_from_flags(const Flags& flags,
                               const std::string& key = "threads");

}  // namespace dcnt
