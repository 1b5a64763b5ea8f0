#include "util/flags.h"

#include <charconv>
#include <string_view>
#include <system_error>

#include "util/logging.h"
#include "util/string_util.h"

namespace cfnet {

FlagParser::FlagParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!StartsWith(arg, "--")) continue;
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      flags_[std::string(arg)] = "true";
    } else {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& default_value) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? default_value : it->second;
}

namespace {

/// Parses the whole value of a present flag; a malformed one aborts.
template <typename T>
T GetNumber(const std::map<std::string, std::string>& flags,
            const std::string& key, T default_value) {
  auto it = flags.find(key);
  if (it == flags.end()) return default_value;
  const std::string& v = it->second;
  T value{};
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), value);
  CFNET_CHECK(ec == std::errc() && ptr == v.data() + v.size())
      << "--" << key << ": malformed value '" << v << "'";
  return value;
}

}  // namespace

int64_t FlagParser::GetInt(const std::string& key, int64_t default_value) const {
  return GetNumber(flags_, key, default_value);
}

double FlagParser::GetDouble(const std::string& key, double default_value) const {
  return GetNumber(flags_, key, default_value);
}

bool FlagParser::GetBool(const std::string& key, bool default_value) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return default_value;
  const std::string v = ToLower(it->second);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  CFNET_CHECK(v == "0" || v == "false" || v == "no" || v == "off")
      << "--" << key << ": malformed value '" << it->second << "'";
  return false;
}

}  // namespace cfnet
