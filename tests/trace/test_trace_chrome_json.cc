/**
 * @file
 * The Chrome trace-event export must be syntactically valid JSON with
 * the schema chrome://tracing and ui.perfetto.dev load: a top-level
 * object with a "traceEvents" array whose entries carry ph/name/pid/
 * tid/ts (plus dur on 'X' spans, s on 'i' instants, args objects with
 * numeric values). Validated here with a minimal recursive-descent
 * JSON parser — no library, full syntax check.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace tensorfhe::trace
{
namespace
{

// ------------------------------------------------------------------
// Minimal JSON model + parser (objects, arrays, strings, numbers,
// true/false/null). Throws std::runtime_error on any syntax error.

struct JsonValue
{
    enum class Kind
    {
        Object,
        Array,
        String,
        Number,
        Bool,
        Null
    };
    Kind kind = Kind::Null;
    std::map<std::string, std::shared_ptr<JsonValue>> object;
    std::vector<std::shared_ptr<JsonValue>> array;
    std::string str;
    double num = 0;
    bool boolean = false;

    const JsonValue &
    at(const std::string &key) const
    {
        auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key: " + key);
        return *it->second;
    }

    bool has(const std::string &key) const
    {
        return object.count(key) > 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != s_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw std::runtime_error("JSON error at offset "
                                 + std::to_string(pos_) + ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < s_.size()
               && std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
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

    JsonValue
    value()
    {
        skipWs();
        char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n')
            return null();
        return number();
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            JsonValue key = string();
            skipWs();
            expect(':');
            v.object[key.str] =
                std::make_shared<JsonValue>(value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(std::make_shared<JsonValue>(value()));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        expect('"');
        for (;;) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return v;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c == '\\') {
                char e = peek();
                ++pos_;
                if (e == '"' || e == '\\' || e == '/')
                    v.str += e;
                else if (e == 'n' || e == 't' || e == 'r'
                         || e == 'b' || e == 'f')
                    v.str += ' ';
                else if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        if (!std::isxdigit(static_cast<unsigned char>(
                                peek())))
                            fail("bad \\u escape");
                        ++pos_;
                    }
                    v.str += '?';
                } else
                    fail("bad escape");
            } else {
                v.str += c;
            }
        }
    }

    JsonValue
    number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size()
               && (std::isdigit(static_cast<unsigned char>(s_[pos_]))
                   || s_[pos_] == '.' || s_[pos_] == 'e'
                   || s_[pos_] == 'E' || s_[pos_] == '+'
                   || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            fail("expected number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        try {
            v.num = std::stod(s_.substr(start, pos_ - start));
        } catch (...) {
            fail("malformed number");
        }
        return v;
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (s_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            fail("expected boolean");
        }
        return v;
    }

    JsonValue
    null()
    {
        if (s_.compare(pos_, 4, "null") != 0)
            fail("expected null");
        pos_ += 4;
        return JsonValue{};
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

class TraceChromeJson : public ::testing::Test
{
  protected:
    void TearDown() override { Tracer::instance().disarm(); }
};

TEST_F(TraceChromeJson, ExportedEventsMatchTheTraceEventSchema)
{
    Tracer::instance().arm();
    {
        TraceSpan outer("graph", "HRotate");
        outer.arg("node", 3).arg("stream", 1);
        {
            TFHE_TRACE_SPAN("kernel", "NTT");
        }
        SpanArg arg{"attempt", 2};
        Tracer::instant("graph", "transient-fault", &arg, 1);
    }
    Tracer::instance().disarm();

    JsonValue root =
        JsonParser(Tracer::instance().chromeJson()).parse();
    ASSERT_EQ(root.kind, JsonValue::Kind::Object);
    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Kind::Array);

    std::size_t complete = 0;
    std::size_t instants = 0;
    std::size_t metadata = 0;
    for (const auto &ep : events.array) {
        const JsonValue &e = *ep;
        ASSERT_EQ(e.kind, JsonValue::Kind::Object);
        const std::string &ph = e.at("ph").str;
        ASSERT_EQ(e.at("name").kind, JsonValue::Kind::String);
        ASSERT_EQ(e.at("pid").kind, JsonValue::Kind::Number);
        ASSERT_EQ(e.at("tid").kind, JsonValue::Kind::Number);
        if (ph == "M") {
            ++metadata;
            EXPECT_EQ(e.at("name").str, "thread_name");
            EXPECT_EQ(e.at("args").at("name").kind,
                      JsonValue::Kind::String);
            continue;
        }
        ASSERT_EQ(e.at("ts").kind, JsonValue::Kind::Number);
        EXPECT_GE(e.at("ts").num, 0.0);
        if (ph == "X") {
            ++complete;
            ASSERT_EQ(e.at("dur").kind, JsonValue::Kind::Number);
            EXPECT_GE(e.at("dur").num, 0.0);
        } else if (ph == "i") {
            ++instants;
            EXPECT_EQ(e.at("s").str, "t");
        } else {
            FAIL() << "unexpected phase: " << ph;
        }
        if (e.has("args")) {
            for (const auto &[k, v] : e.at("args").object)
                EXPECT_EQ(v->kind, JsonValue::Kind::Number)
                    << "non-numeric arg " << k;
        }
    }
    EXPECT_EQ(complete, 2u);
    EXPECT_EQ(instants, 1u);
    EXPECT_GE(metadata, 1u);
}

TEST_F(TraceChromeJson, GpuLanesRenderAsSecondProcess)
{
    Tracer::instance().arm();
    TFHE_TRACE_SPAN("exec", "host-op");
    Tracer::instance().disarm();

    std::vector<Tracer::ExternalSpan> lanes = {
        {"NTT", 0, 0, 100},
        {"Hada-Mult", 1, 40, 60},
    };
    JsonValue root =
        JsonParser(Tracer::instance().chromeJson(lanes)).parse();
    const JsonValue &events = root.at("traceEvents");

    std::size_t gpu_spans = 0;
    std::size_t gpu_lane_names = 0;
    for (const auto &ep : events.array) {
        const JsonValue &e = *ep;
        if (e.at("pid").num != 1.0)
            continue;
        if (e.at("ph").str == "M")
            ++gpu_lane_names;
        else
            ++gpu_spans;
    }
    EXPECT_EQ(gpu_spans, 2u);
    EXPECT_EQ(gpu_lane_names, 2u); // one thread_name per stream lane
}

TEST_F(TraceChromeJson, DynamicAndEscapableNamesStayValidJson)
{
    Tracer::instance().arm();
    {
        TraceSpan sp("nn", std::string("dense\"16->4\\x"));
    }
    Tracer::instance().disarm();
    // Must parse despite the quote and backslash in the span name.
    JsonValue root =
        JsonParser(Tracer::instance().chromeJson()).parse();
    bool found = false;
    for (const auto &ep : root.at("traceEvents").array)
        if (ep->at("ph").str == "X") {
            EXPECT_NE(ep->at("name").str.find("dense"),
                      std::string::npos);
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST_F(TraceChromeJson, WriteToFullDiskReportsFailure)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full is absent";
    Tracer::instance().arm();
    {
        TraceSpan sp("graph", "HRotate");
    }
    Tracer::instance().disarm();
    // Under one stdio buffer, fwrite only buffers the payload: the
    // full disk surfaces when fclose flushes it.
    ASSERT_LT(Tracer::instance().chromeJson().size(), 4096u);
    EXPECT_FALSE(Tracer::instance().writeChromeJson("/dev/full"));
}

} // namespace
} // namespace tensorfhe::trace
