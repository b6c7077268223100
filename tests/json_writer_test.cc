#include "util/json_writer.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "tests/test_json_parser.h"

namespace pincer {
namespace {

using test::JsonValue;
using test::ParseJson;

std::string Emit(void (*build)(JsonWriter&), int indent = 2) {
  std::ostringstream os;
  JsonWriter json(os, indent);
  build(json);
  return os.str();
}

TEST(JsonWriterTest, EmptyObject) {
  EXPECT_EQ(Emit([](JsonWriter& j) { j.BeginObject().EndObject(); }), "{}");
}

TEST(JsonWriterTest, EmptyArray) {
  EXPECT_EQ(Emit([](JsonWriter& j) { j.BeginArray().EndArray(); }), "[]");
}

TEST(JsonWriterTest, CompactObject) {
  const std::string text = Emit(
      [](JsonWriter& j) {
        j.BeginObject().KeyValue("a", 1).KeyValue("b", "x").EndObject();
      },
      /*indent=*/0);
  EXPECT_EQ(text, R"({"a":1,"b":"x"})");
}

TEST(JsonWriterTest, PrettyPrintedObject) {
  const std::string text = Emit([](JsonWriter& j) {
    j.BeginObject().KeyValue("a", 1).EndObject();
  });
  EXPECT_EQ(text, "{\n  \"a\": 1\n}");
}

TEST(JsonWriterTest, EscapeSpecialCharacters) {
  EXPECT_EQ(JsonWriter::Escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::Escape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonWriter::Escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonWriter::Escape("\b\f\r"), "\\b\\f\\r");
  EXPECT_EQ(JsonWriter::Escape(std::string("\x01\x1f", 2)),
            "\\u0001\\u001f");
  // Non-ASCII bytes pass through untouched (UTF-8 stays UTF-8).
  EXPECT_EQ(JsonWriter::Escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonWriterTest, EscapedStringsRoundTrip) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject().KeyValue("s", nasty).EndObject();
  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  const JsonValue* s = doc->Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->string, nasty);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  const std::string text = Emit([](JsonWriter& j) {
    j.BeginObject()
        .KeyValue("nan", std::numeric_limits<double>::quiet_NaN())
        .KeyValue("inf", std::numeric_limits<double>::infinity())
        .KeyValue("ninf", -std::numeric_limits<double>::infinity())
        .KeyValue("finite", 1.5)
        .EndObject();
  });
  const auto doc = ParseJson(text);
  ASSERT_TRUE(doc.has_value()) << text;
  EXPECT_TRUE(doc->Find("nan")->is_null());
  EXPECT_TRUE(doc->Find("inf")->is_null());
  EXPECT_TRUE(doc->Find("ninf")->is_null());
  EXPECT_DOUBLE_EQ(doc->Find("finite")->number, 1.5);
}

TEST(JsonWriterTest, DoublesRoundTripExactly) {
  for (const double value : {0.0, -0.0, 0.1, 1e-9, 1e300, 123456.789,
                             0.005143999999999999, 3.141592653589793}) {
    std::ostringstream os;
    JsonWriter json(os, 0);
    json.BeginArray().Value(value).EndArray();
    const auto doc = ParseJson(os.str());
    ASSERT_TRUE(doc.has_value()) << os.str();
    ASSERT_EQ(doc->array.size(), 1u);
    EXPECT_EQ(doc->array[0].number, value) << os.str();
  }
}

TEST(JsonWriterTest, IntegerLimitsRoundTrip) {
  std::ostringstream os;
  JsonWriter json(os, 0);
  json.BeginObject()
      .KeyValue("u64", std::numeric_limits<uint64_t>::max())
      .KeyValue("i64min", std::numeric_limits<int64_t>::min())
      .KeyValue("zero", uint64_t{0})
      .EndObject();
  // Exact text, not via double (u64 max is not representable as a double).
  EXPECT_EQ(os.str(),
            R"({"u64":18446744073709551615,"i64min":-9223372036854775808,)"
            R"("zero":0})");
}

TEST(JsonWriterTest, NestedContainersRoundTrip) {
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginObject();
  json.KeyValue("name", "run");
  json.KeyValue("ok", true);
  json.KeyValue("skipped", false);
  json.Key("empty").BeginArray().EndArray();
  json.Key("rows").BeginArray();
  for (int i = 0; i < 3; ++i) {
    json.BeginObject().KeyValue("i", i).KeyValue("sq", i * i).EndObject();
  }
  json.EndArray();
  json.Key("nested").BeginObject();
  json.Key("deep").BeginArray().Value(1).Value("two").Null().EndArray();
  json.EndObject();
  json.EndObject();

  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  EXPECT_EQ(doc->Find("name")->string, "run");
  EXPECT_TRUE(doc->Find("ok")->boolean);
  EXPECT_FALSE(doc->Find("skipped")->boolean);
  EXPECT_TRUE(doc->Find("empty")->array.empty());
  const JsonValue* rows = doc->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 3u);
  EXPECT_EQ(rows->array[2].Find("sq")->number, 4.0);
  const JsonValue* deep = doc->Find("nested")->Find("deep");
  ASSERT_NE(deep, nullptr);
  ASSERT_EQ(deep->array.size(), 3u);
  EXPECT_EQ(deep->array[0].number, 1.0);
  EXPECT_EQ(deep->array[1].string, "two");
  EXPECT_TRUE(deep->array[2].is_null());
}

TEST(JsonWriterTest, TopLevelArrayOfObjects) {
  // The bench --json files are a top-level array; make sure that shape
  // parses and preserves order.
  std::ostringstream os;
  JsonWriter json(os);
  json.BeginArray();
  json.BeginObject().KeyValue("id", 1).EndObject();
  json.BeginObject().KeyValue("id", 2).EndObject();
  json.EndArray();
  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  ASSERT_EQ(doc->array.size(), 2u);
  EXPECT_EQ(doc->array[0].Find("id")->number, 1.0);
  EXPECT_EQ(doc->array[1].Find("id")->number, 2.0);
}

TEST(JsonWriterTest, KeysPreserveInsertionOrder) {
  std::ostringstream os;
  JsonWriter json(os, 0);
  json.BeginObject()
      .KeyValue("z", 1)
      .KeyValue("a", 2)
      .KeyValue("m", 3)
      .EndObject();
  const auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->object.size(), 3u);
  EXPECT_EQ(doc->object[0].first, "z");
  EXPECT_EQ(doc->object[1].first, "a");
  EXPECT_EQ(doc->object[2].first, "m");
}

TEST(JsonWriterTest, RawValueSplicesInObjectAndArrayPositionsCompact) {
  const std::string text = Emit(
      [](JsonWriter& j) {
        j.BeginObject()
            .KeyValue("a", 1)
            .Key("raw")
            .RawValue(R"({"x":[1,2]})")
            .Key("list")
            .BeginArray()
            .RawValue("[]")
            .Value(2)
            .RawValue(R"("s")")
            .EndArray()
            .Key("last")
            .RawValue("null")
            .EndObject();
      },
      /*indent=*/0);
  EXPECT_EQ(text,
            R"({"a":1,"raw":{"x":[1,2]},"list":[[],2,"s"],"last":null})");
}

TEST(JsonWriterTest, RawValueSplicesInObjectAndArrayPositionsIndented) {
  // The writer indents up to the value and keeps the value's own bytes.
  const std::string text = Emit([](JsonWriter& j) {
    j.BeginObject()
        .Key("raw")
        .RawValue(R"({"x":1})")
        .Key("list")
        .BeginArray()
        .RawValue("[1,2]")
        .RawValue("3")
        .EndArray()
        .EndObject();
  });
  EXPECT_EQ(text,
            "{\n"
            "  \"raw\": {\"x\":1},\n"
            "  \"list\": [\n"
            "    [1,2],\n"
            "    3\n"
            "  ]\n"
            "}");
}

TEST(JsonWriterTest, RawValueEqualsTheSameValueWrittenInPlace) {
  // The daemon's use: a value serialized once by its own compact writer,
  // then spliced, gives the bytes of writing it in place.
  const auto write_mfs = [](JsonWriter& j) {
    j.BeginArray();
    for (uint64_t support : {7, 5}) {
      j.BeginObject().KeyValue("support", support);
      j.Key("items").BeginArray().Value(support).Value(9).EndArray();
      j.EndObject();
    }
    j.EndArray();
  };
  std::ostringstream mfs;
  {
    JsonWriter json(mfs, 0);
    write_mfs(json);
  }
  std::ostringstream spliced;
  JsonWriter splicer(spliced, 0);
  splicer.BeginObject().KeyValue("n", 2).Key("mfs").RawValue(mfs.str());
  splicer.KeyValue("after", true).EndObject();
  std::ostringstream in_place;
  JsonWriter writer(in_place, 0);
  writer.BeginObject().KeyValue("n", 2).Key("mfs");
  write_mfs(writer);
  writer.KeyValue("after", true).EndObject();
  EXPECT_EQ(spliced.str(), in_place.str());
}

TEST(JsonWriterTest, CallerWriteAfterAFinishedDocumentLandsAfterIt) {
  // mine_cli and the bench helper end a document with `out << "\n"` while
  // the writer is still in scope.
  std::ostringstream os;
  JsonWriter json(os, 0);
  json.BeginObject().KeyValue("a", 1).EndObject();
  os << "\n";
  EXPECT_EQ(os.str(), "{\"a\":1}\n");
}

TEST(JsonWriterTest, TwoTopLevelDocumentsBackToBack) {
  std::ostringstream os;
  JsonWriter json(os, 0);
  json.BeginObject().KeyValue("a", 1).EndObject();
  os << "\n";
  json.BeginArray().Value("b").EndArray();
  os << "\n";
  EXPECT_EQ(os.str(), "{\"a\":1}\n[\"b\"]\n");
}

TEST(JsonWriterTest, DestroyedInsideAnOpenContainerWritesAllItWasGiven) {
  std::ostringstream os;
  {
    JsonWriter json(os, 0);
    json.BeginObject().KeyValue("a", 1).Key("list").BeginArray().Value(2);
  }
  EXPECT_EQ(os.str(), R"({"a":1,"list":[2)");
}

TEST(JsonWriterTest, DocumentLargerThanTheFlushThresholdIsWhole) {
  // Enough items to hand the buffer to the stream several times mid-array;
  // the result must equal the same document assembled by hand.
  std::ostringstream os;
  std::string expected = "{\"items\":[";
  {
    JsonWriter json(os, 0);
    json.BeginObject().Key("items").BeginArray();
    for (uint64_t i = 0; expected.size() < 4 * JsonWriter::kFlushBytes; ++i) {
      json.BeginObject().KeyValue("i", i).KeyValue("s", "a\"b").EndObject();
      if (i > 0) expected += ',';
      expected += "{\"i\":" + std::to_string(i) + ",\"s\":\"a\\\"b\"}";
    }
    // No more than the threshold and one item is held back mid-document.
    EXPECT_GE(os.str().size(), 3 * JsonWriter::kFlushBytes);
    json.EndArray().EndObject();
  }
  expected += "]}";
  EXPECT_EQ(os.str(), expected);
}

}  // namespace
}  // namespace pincer
