#include "common/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace cloudjoin {

Flags::Flags(int argc, char** argv, std::vector<std::string> accepted)
    : accepted_(std::move(accepted)) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      std::string body = arg.substr(2);
      size_t eq = body.find('=');
      std::string name = body.substr(0, eq);
      if (std::find(accepted_.begin(), accepted_.end(), name) ==
          accepted_.end()) {
        UsageError("unknown flag --" + name);
      }
      values_[name] = eq == std::string::npos ? "true" : body.substr(eq + 1);
    } else {
      positional_.push_back(arg);
    }
  }
}

const std::string* Flags::Find(const std::string& name) const {
  CLOUDJOIN_CHECK(std::find(accepted_.begin(), accepted_.end(), name) !=
                  accepted_.end())
      << "flag --" << name << " is read but not in the accepted list";
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

void Flags::UsageError(const std::string& what) const {
  std::fprintf(stderr, "%s\naccepted flags:", what.c_str());
  for (const std::string& name : accepted_) {
    std::fprintf(stderr, " --%s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  const std::string* value = Find(name);
  return value == nullptr ? fallback : *value;
}

int64_t Flags::GetInt(const std::string& name, int64_t fallback) const {
  const std::string* value = Find(name);
  if (value == nullptr) return fallback;
  auto parsed = ParseInt64(*value);
  if (!parsed.ok()) UsageError("--" + name + "=" + *value + ": not an integer");
  return *parsed;
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  const std::string* value = Find(name);
  if (value == nullptr) return fallback;
  auto parsed = ParseDouble(*value);
  if (!parsed.ok()) UsageError("--" + name + "=" + *value + ": not a number");
  return *parsed;
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  const std::string* value = Find(name);
  if (value == nullptr) return fallback;
  if (*value == "true" || *value == "1" || *value == "yes") return true;
  if (*value == "false" || *value == "0" || *value == "no") return false;
  UsageError("--" + name + "=" + *value + ": not a boolean");
}

}  // namespace cloudjoin
