/**
 * @file
 * The one JSON reader and the one JSON string escaper.
 *
 * Both JSON inputs are flat objects of string values: a config file
 * ("--config=file.json", a dumpConfig document) and the daemon's POST
 * /sweep body, whose values may also be arrays of strings. One strict
 * parser reads both, so nested objects, numbers, booleans and null are
 * rejected up front with a message naming the offset.
 */

#ifndef VPR_COMMON_JSON_HH
#define VPR_COMMON_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace vpr
{

/** A flat JSON object's fields in document order (a repeated key
 *  appends another field); a string value is a one-element list. */
using JsonFields =
    std::vector<std::pair<std::string, std::vector<std::string>>>;

/**
 * Parse @p text as one flat JSON object whose values are strings or,
 * with @p allowArrays, arrays of strings. Anything else throws an Error
 * "bad JSON <source>: <what> at offset <n>" (@p source names the input,
 * e.g. "body"); a wrongly typed value's message names its key.
 */
JsonFields parseFlatJson(const std::string &text, const std::string &source,
                         bool allowArrays);

/** Escape @p text as the contents of a JSON string literal. */
std::string jsonEscape(const std::string &text);

} // namespace vpr

#endif // VPR_COMMON_JSON_HH
