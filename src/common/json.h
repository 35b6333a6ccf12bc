/**
 * @file
 * Minimal JSON reader for the observability tooling (see DESIGN.md
 * "Performance observatory").
 *
 * hwpr-obs has to read back what the repo itself writes — metrics
 * snapshots, Chrome traces, BENCH_*.json, the run ledger — and the
 * build takes no third-party dependencies, so this is a small
 * hand-rolled recursive-descent parser: full JSON value model
 * (null/bool/number/string/array/object), doubles for all numbers,
 * insertion-ordered object keys. There is no streaming.
 *
 * It is not only a reader for the repo's own files: hwpr-serve parses
 * every wire frame and job file with it. Any input either parses or
 * throws std::runtime_error with a byte offset, and arrays and
 * objects nest at most 64 levels (the bracket that opens level 65 is
 * rejected), so recursion depth stays bounded. The parsed tree still
 * costs about a hundred bytes per value, so callers bound the input
 * length (hwpr-serve: 16 MiB per frame).
 */

#ifndef HWPR_COMMON_JSON_H
#define HWPR_COMMON_JSON_H

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hwpr::json
{

class Value;

/** Object member list; insertion order preserved for determinism. */
using Members = std::vector<std::pair<std::string, Value>>;

/** One parsed JSON value (tree node). */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Value() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; throw std::runtime_error on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<Value> &asArray() const;
    const Members &asObject() const;

    /**
     * Object member lookup by key; nullptr when absent or when this
     * value is not an object (so lookups chain without kind checks).
     */
    const Value *find(const std::string &key) const;

    /** find() + asNumber(), with @p fallback when absent/non-number. */
    double numberOr(const std::string &key, double fallback) const;
    /** find() + asString(), with @p fallback when absent/non-string. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    static Value makeNull() { return Value(); }
    static Value makeBool(bool b);
    static Value makeNumber(double v);
    static Value makeString(std::string s);
    static Value makeArray(std::vector<Value> items);
    static Value makeObject(Members members);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Value> items_;
    Members members_;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage rejected). Throws std::runtime_error with a byte
 * offset on malformed input and on nesting deeper than 64 levels.
 */
Value parse(const std::string &text);

/**
 * Read and parse the file at @p path. Throws std::runtime_error when
 * the file cannot be read or does not parse.
 */
Value parseFile(const std::string &path);

} // namespace hwpr::json

#endif // HWPR_COMMON_JSON_H
