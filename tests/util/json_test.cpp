#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <streambuf>

#include "util/error.hpp"

namespace cwgl::util {
namespace {

std::string render(void (*build)(JsonWriter&)) {
  std::ostringstream out;
  JsonWriter j(out);
  build(j);
  EXPECT_TRUE(j.complete());
  return out.str();
}

TEST(JsonWriter, EmptyObjectAndArray) {
  EXPECT_EQ(render([](JsonWriter& j) {
              j.begin_object();
              j.end_object();
            }),
            "{}");
  EXPECT_EQ(render([](JsonWriter& j) {
              j.begin_array();
              j.end_array();
            }),
            "[]");
}

TEST(JsonWriter, ObjectWithMixedFields) {
  const std::string text = render([](JsonWriter& j) {
    j.begin_object();
    j.field("name", "cwgl");
    j.field("count", 42);
    j.field("ratio", 0.5);
    j.field("ok", true);
    j.key("nothing");
    j.null();
    j.end_object();
  });
  EXPECT_EQ(text,
            "{\"name\":\"cwgl\",\"count\":42,\"ratio\":0.5,\"ok\":true,"
            "\"nothing\":null}");
}

TEST(JsonWriter, ArrayCommas) {
  const std::string text = render([](JsonWriter& j) {
    j.begin_array();
    j.value(1);
    j.value(2);
    j.value(3);
    j.end_array();
  });
  EXPECT_EQ(text, "[1,2,3]");
}

TEST(JsonWriter, NestedStructures) {
  const std::string text = render([](JsonWriter& j) {
    j.begin_object();
    j.key("rows");
    j.begin_array();
    j.begin_object();
    j.field("x", 1);
    j.end_object();
    j.begin_object();
    j.field("x", 2);
    j.end_object();
    j.end_array();
    j.end_object();
  });
  EXPECT_EQ(text, "{\"rows\":[{\"x\":1},{\"x\":2}]}");
}

TEST(JsonWriter, StringEscaping) {
  const std::string text = render([](JsonWriter& j) {
    j.value("a\"b\\c\nd\te");
  });
  EXPECT_EQ(text, "\"a\\\"b\\\\c\\nd\\te\"");
}

TEST(JsonWriter, ControlCharactersEscaped) {
  std::ostringstream out;
  JsonWriter j(out);
  j.value(std::string_view("\x01", 1));
  EXPECT_EQ(out.str(), "\"\\u0001\"");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  const std::string text = render([](JsonWriter& j) {
    j.begin_array();
    j.value(std::nan(""));
    j.value(std::numeric_limits<double>::infinity());
    j.value(1.5);
    j.end_array();
  });
  EXPECT_EQ(text, "[null,null,1.5]");
}

TEST(JsonWriter, MisuseThrows) {
  std::ostringstream out;
  {
    JsonWriter j(out);
    EXPECT_THROW(j.key("k"), InvalidArgument);  // key outside object
  }
  {
    JsonWriter j(out);
    j.begin_object();
    EXPECT_THROW(j.value(1), InvalidArgument);  // value without key
  }
  {
    JsonWriter j(out);
    j.begin_array();
    EXPECT_THROW(j.end_object(), InvalidArgument);  // mismatched close
  }
  {
    JsonWriter j(out);
    j.value(1);
    EXPECT_THROW(j.value(2), InvalidArgument);  // two roots
  }
}

TEST(JsonWriter, CompleteOnlyWhenBalanced) {
  std::ostringstream out;
  JsonWriter j(out);
  EXPECT_FALSE(j.complete());
  j.begin_object();
  EXPECT_FALSE(j.complete());
  j.end_object();
  EXPECT_TRUE(j.complete());
}

TEST(JsonWriter, RawEmbedsPreSerializedValue) {
  std::ostringstream out;
  JsonWriter j(out);
  j.begin_object();
  j.key("metrics");
  j.raw(R"({"counters":{"a.b.c":1}})");
  j.field("after", 2);
  j.end_object();
  EXPECT_TRUE(j.complete());
  EXPECT_EQ(out.str(), R"({"metrics":{"counters":{"a.b.c":1}},"after":2})");
}

/// A stream buffer that accepts nothing.
class FailingBuffer : public std::streambuf {
 protected:
  int_type overflow(int_type) override { return traits_type::eof(); }
  std::streamsize xsputn(const char*, std::streamsize) override { return 0; }
};

TEST(JsonWriter, StreamFailureStaysInTheStreamState) {
  FailingBuffer buffer;
  {
    std::ostream out(&buffer);
    {
      JsonWriter j(out);
      j.begin_object();
      j.field("open", true);
    }  // the destructor's write fails quietly
    EXPECT_TRUE(out.bad());
  }
  {
    std::ostream out(&buffer);
    out.exceptions(std::ios::badbit);
    {
      JsonWriter j(out);
      j.begin_array();
      j.value(1);
      EXPECT_THROW(j.end_array(), std::ios_base::failure);
    }
    EXPECT_TRUE(out.bad());
    out.clear();
    {
      JsonWriter j(out);
      j.begin_array();
    }  // a throwing stream does not throw out of the destructor
    EXPECT_TRUE(out.bad());
  }
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_EQ(parse_json("-1.5e2").as_number(), -150.0);
  EXPECT_EQ(parse_json(R"("hi")").as_string(), "hi");
}

TEST(JsonParse, NestedContainers) {
  const JsonValue doc = parse_json(
      R"({"name":"cwgl","tags":[1,2,3],"nested":{"ok":true,"x":null}})");
  EXPECT_EQ(doc.at("name").as_string(), "cwgl");
  const auto& tags = doc.at("tags").as_array();
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[1].as_number(), 2.0);
  EXPECT_TRUE(doc.at("nested").at("ok").as_bool());
  EXPECT_TRUE(doc.at("nested").at("x").is_null());
  EXPECT_TRUE(doc.contains("name"));
  EXPECT_FALSE(doc.contains("missing"));
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd\t")").as_string(), "a\"b\\c\nd\t");
  // \u via BMP and a surrogate pair (U+1F600 -> 4-byte UTF-8).
  EXPECT_EQ(parse_json(R"("\u0041")").as_string(), "A");
  EXPECT_EQ(parse_json(R"("\uD83D\uDE00")").as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonParse, RoundTripsWriterOutput) {
  std::ostringstream out;
  JsonWriter j(out);
  j.begin_object();
  j.field("count", 3);
  j.field("label", "a \"quoted\" name");
  j.key("values");
  j.begin_array();
  j.value(1.5);
  j.value(false);
  j.end_array();
  j.end_object();
  const JsonValue doc = parse_json(out.str());
  EXPECT_EQ(doc.at("count").as_number(), 3.0);
  EXPECT_EQ(doc.at("label").as_string(), "a \"quoted\" name");
  EXPECT_EQ(doc.at("values").as_array()[0].as_number(), 1.5);
}

TEST(JsonSerialize, ToJsonStringRoundTripsParsedDocuments) {
  // The serve protocol re-serializes parsed `payload` subtrees with
  // to_json_string: semantics must survive, keys come out sorted, and
  // integral doubles print without a fraction.
  const std::string canonical =
      R"({"a":[1,2.5,true,null,"x"],"b":{"nested":-7},"c":false})";
  EXPECT_EQ(to_json_string(parse_json(canonical)), canonical);

  // Unsorted input keys are normalized; a second round trip is stable.
  const std::string normalized =
      to_json_string(parse_json(R"({"z":1,"a":{"k":0.125}})"));
  EXPECT_EQ(normalized, R"({"a":{"k":0.125},"z":1})");
  EXPECT_EQ(to_json_string(parse_json(normalized)), normalized);

  // Escapes survive the round trip.
  EXPECT_EQ(to_json_string(parse_json(R"(["a\"b\\c\nd"])")),
            R"(["a\"b\\c\nd"])");

  std::ostringstream out;
  write_json(out, parse_json("[0,9007199254740992]"));
  EXPECT_EQ(out.str(), "[0,9007199254740992]");  // exact up to 2^53
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW(parse_json(""), ParseError);
  EXPECT_THROW(parse_json("{"), ParseError);
  EXPECT_THROW(parse_json("[1,]"), ParseError);
  EXPECT_THROW(parse_json("{\"a\":1,}"), ParseError);
  EXPECT_THROW(parse_json("01"), ParseError);       // leading zero
  EXPECT_THROW(parse_json("1 2"), ParseError);      // trailing content
  EXPECT_THROW(parse_json("\"\\x\""), ParseError);  // bad escape
  EXPECT_THROW(parse_json("nul"), ParseError);
}

TEST(JsonParse, RejectsRunawayNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_THROW(parse_json(deep), ParseError);
}

TEST(JsonParse, AccessorsCheckKind) {
  const JsonValue doc = parse_json("[1]");
  EXPECT_THROW(doc.as_object(), InvalidArgument);
  EXPECT_THROW(doc.at("key"), InvalidArgument);
  EXPECT_EQ(doc.as_array()[0].as_number(), 1.0);
  EXPECT_THROW(doc.as_array()[0].as_string(), InvalidArgument);
}

}  // namespace
}  // namespace cwgl::util
