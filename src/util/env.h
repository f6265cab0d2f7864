#ifndef RQP_UTIL_ENV_H_
#define RQP_UTIL_ENV_H_

#include <cstdint>

namespace rqp {

// Environment knobs, parsed one way everywhere. A number must be the whole
// string: "4x", "" and, for an integer, "2.5" all give the fallback.

/// $name as a positive integer (out-of-range values saturate), or
/// `fallback` when it is unset, not a whole integer, or <= 0.
int64_t EnvInt64(const char* name, int64_t fallback);

/// $name as a finite floating-point number, or `fallback` when it is unset,
/// not a whole number, or NaN or infinite.
double EnvDouble(const char* name, double fallback);

/// $name as a switch: "0" is off and any other value on; unset or empty
/// gives `if_unset`.
bool EnvFlag(const char* name, bool if_unset);

}  // namespace rqp

#endif  // RQP_UTIL_ENV_H_
