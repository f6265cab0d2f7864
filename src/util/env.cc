#include "util/env.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

namespace rqp {

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) return fallback;
  return static_cast<int64_t>(v);
}

double EnvDouble(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  // strtod also takes "nan" and "inf", which the callers' range clamps do
  // not catch (every comparison with NaN is false).
  if (end == env || *end != '\0' || !std::isfinite(v)) return fallback;
  return v;
}

bool EnvFlag(const char* name, bool if_unset) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return if_unset;
  return std::strcmp(env, "0") != 0;
}

}  // namespace rqp
