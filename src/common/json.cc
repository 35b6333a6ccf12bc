#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hwpr::json
{

namespace
{

[[noreturn]] void
fail(std::size_t pos, const std::string &what)
{
    throw std::runtime_error("json: " + what + " at byte " +
                             std::to_string(pos));
}

/**
 * Deepest array/object nesting parse() accepts. The parser recurses
 * once per level, so an uncapped document of a few ten thousand '['
 * overflows the stack; wire requests nest three levels and the
 * repo's own files at most six.
 */
constexpr std::size_t kMaxDepth = 64;

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;

    /** Throw when the bracket at pos opens level @p depth > kMaxDepth. */
    void
    checkDepth(std::size_t depth)
    {
        if (depth > kMaxDepth)
            fail(pos, "nesting deeper than " +
                          std::to_string(kMaxDepth) + " levels");
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail(pos, "unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(pos, std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consumeWord(const char *word)
    {
        std::size_t n = 0;
        while (word[n] != '\0')
            ++n;
        if (text.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    /** One value at nesting @p depth (0 at the top level). */
    Value
    parseValue(std::size_t depth)
    {
        skipWs();
        const char c = peek();
        switch (c) {
        case '{':
            return parseObject(depth + 1);
        case '[':
            return parseArray(depth + 1);
        case '"':
            return Value::makeString(parseString());
        case 't':
            if (!consumeWord("true"))
                fail(pos, "bad literal");
            return Value::makeBool(true);
        case 'f':
            if (!consumeWord("false"))
                fail(pos, "bad literal");
            return Value::makeBool(false);
        case 'n':
            if (!consumeWord("null"))
                fail(pos, "bad literal");
            return Value::makeNull();
        default:
            return parseNumber();
        }
    }

    Value
    parseObject(std::size_t depth)
    {
        checkDepth(depth);
        expect('{');
        Members members;
        skipWs();
        if (peek() == '}') {
            ++pos;
            return Value::makeObject(std::move(members));
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            members.emplace_back(std::move(key), parseValue(depth));
            skipWs();
            const char c = peek();
            if (c == ',') {
                ++pos;
                continue;
            }
            if (c == '}') {
                ++pos;
                return Value::makeObject(std::move(members));
            }
            fail(pos, "expected ',' or '}'");
        }
    }

    Value
    parseArray(std::size_t depth)
    {
        checkDepth(depth);
        expect('[');
        std::vector<Value> items;
        skipWs();
        if (peek() == ']') {
            ++pos;
            return Value::makeArray(std::move(items));
        }
        while (true) {
            items.push_back(parseValue(depth));
            skipWs();
            const char c = peek();
            if (c == ',') {
                ++pos;
                continue;
            }
            if (c == ']') {
                ++pos;
                return Value::makeArray(std::move(items));
            }
            fail(pos, "expected ',' or ']'");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail(pos, "unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail(pos, "unterminated escape");
            const char e = text[pos++];
            switch (e) {
            case '"':
            case '\\':
            case '/':
                out += e;
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'u': {
                if (pos + 4 > text.size())
                    fail(pos, "truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code += unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code += unsigned(h - 'A' + 10);
                    else
                        fail(pos - 1, "bad hex digit");
                }
                // UTF-8 encode the BMP code point; surrogate pairs
                // are not combined (our writers never emit them).
                if (code < 0x80) {
                    out += char(code);
                } else if (code < 0x800) {
                    out += char(0xC0 | (code >> 6));
                    out += char(0x80 | (code & 0x3F));
                } else {
                    out += char(0xE0 | (code >> 12));
                    out += char(0x80 | ((code >> 6) & 0x3F));
                    out += char(0x80 | (code & 0x3F));
                }
                break;
            }
            default:
                fail(pos - 1, "bad escape");
            }
        }
    }

    Value
    parseNumber()
    {
        const std::size_t start = pos;
        if (pos < text.size() && (text[pos] == '-' || text[pos] == '+'))
            ++pos;
        bool any = false;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '-' ||
                text[pos] == '+')) {
            ++pos;
            any = true;
        }
        if (!any)
            fail(start, "expected a value");
        const std::string tok = text.substr(start, pos - start);
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0')
            fail(start, "bad number '" + tok + "'");
        // strtod saturates overflow to +/-inf without failing; a
        // literal like 1e400 would otherwise flow downstream as inf
        // and silently poison every comparison. Underflow-to-zero is
        // still accepted — it is finite and loses only precision.
        if (!std::isfinite(v))
            fail(start, "number out of range '" + tok + "'");
        return Value::makeNumber(v);
    }
};

} // namespace

bool
Value::asBool() const
{
    if (kind_ != Kind::Bool)
        throw std::runtime_error("json: not a bool");
    return bool_;
}

double
Value::asNumber() const
{
    if (kind_ != Kind::Number)
        throw std::runtime_error("json: not a number");
    return num_;
}

const std::string &
Value::asString() const
{
    if (kind_ != Kind::String)
        throw std::runtime_error("json: not a string");
    return str_;
}

const std::vector<Value> &
Value::asArray() const
{
    if (kind_ != Kind::Array)
        throw std::runtime_error("json: not an array");
    return items_;
}

const Members &
Value::asObject() const
{
    if (kind_ != Kind::Object)
        throw std::runtime_error("json: not an object");
    return members_;
}

const Value *
Value::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

double
Value::numberOr(const std::string &key, double fallback) const
{
    const Value *v = find(key);
    return (v != nullptr && v->isNumber()) ? v->num_ : fallback;
}

std::string
Value::stringOr(const std::string &key,
                const std::string &fallback) const
{
    const Value *v = find(key);
    return (v != nullptr && v->isString()) ? v->str_ : fallback;
}

Value
Value::makeBool(bool b)
{
    Value v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::makeNumber(double d)
{
    Value v;
    v.kind_ = Kind::Number;
    v.num_ = d;
    return v;
}

Value
Value::makeString(std::string s)
{
    Value v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

Value
Value::makeArray(std::vector<Value> items)
{
    Value v;
    v.kind_ = Kind::Array;
    v.items_ = std::move(items);
    return v;
}

Value
Value::makeObject(Members members)
{
    Value v;
    v.kind_ = Kind::Object;
    v.members_ = std::move(members);
    return v;
}

Value
parse(const std::string &text)
{
    Parser p{text};
    Value v = p.parseValue(0);
    p.skipWs();
    if (p.pos != text.size())
        fail(p.pos, "trailing garbage");
    return v;
}

Value
parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("json: cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

} // namespace hwpr::json
