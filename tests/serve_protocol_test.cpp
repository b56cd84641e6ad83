// Wire protocol: JSON parsing strictness, request round-trips, and the
// encoded decision/error/bye shapes the smoke script greps for.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include "support/json.hpp"
#include "support/parse_error.hpp"

namespace tvnep::serve {
namespace {

TEST(ServeJson, ParsesScalarsArraysAndObjects) {
  const JsonValue v = parse_json(
      R"({"a":1.5,"b":"x","c":[1,2,3],"d":{"e":true,"f":null},"g":-2e3})",
      "test");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.find("a")->as_number(), 1.5);
  EXPECT_EQ(v.find("b")->as_string(), "x");
  ASSERT_EQ(v.find("c")->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("c")->as_array()[2].as_number(), 3.0);
  EXPECT_TRUE(v.find("d")->find("e")->as_bool());
  EXPECT_TRUE(v.find("d")->find("f")->is_null());
  EXPECT_DOUBLE_EQ(v.find("g")->as_number(), -2000.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServeJson, DecodesEscapesAndSurrogatePairs) {
  const JsonValue v =
      parse_json(R"("a\"b\\c\n\tA😀")", "test");
  EXPECT_EQ(v.as_string(), "a\"b\\c\n\tA\xF0\x9F\x98\x80");
}

TEST(ServeJson, RejectsMalformedInputWithLocation) {
  EXPECT_THROW(parse_json("{\"a\":}", "t"), ParseError);
  EXPECT_THROW(parse_json("{\"a\":1,}", "t"), ParseError);
  EXPECT_THROW(parse_json("[1 2]", "t"), ParseError);
  EXPECT_THROW(parse_json("\"unterminated", "t"), ParseError);
  EXPECT_THROW(parse_json("tru", "t"), ParseError);
  EXPECT_THROW(parse_json("1.2.3", "t"), ParseError);
  EXPECT_THROW(parse_json("{} trailing", "t"), ParseError);
  EXPECT_THROW(parse_json(R"("\uD800")", "t"), ParseError);
  try {
    parse_json("{\"a\": x}", "somewhere", 7);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.source(), "somewhere");
    EXPECT_EQ(e.line(), 7);
    EXPECT_GT(e.column(), 0);
  }
}

TEST(ServeJson, NestingIsCappedAtTheDepthLimit) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(parse_json(nested(kMaxJsonDepth), "t").is_array());
  EXPECT_THROW(parse_json(nested(kMaxJsonDepth + 1), "t"), ParseError);
  // Objects count toward the same limit as arrays.
  std::string mixed;
  for (int i = 0; i < kMaxJsonDepth; ++i) mixed += "{\"k\":[";
  EXPECT_THROW(parse_json(mixed, "t"), ParseError);
}

// Every located accessor throws a ParseError at the caller's source:line
// for a missing key and for a member of the wrong type.
TEST(ServeJson, MemberAccessorsLocateMissingAndMistypedKeys) {
  const JsonValue v = parse_json(
      R"({"n":1.5,"u":7,"s":"x","b":true,"a":[1],"o":{}})", "t");
  const auto expect_located = [](const auto& call, const char* what) {
    try {
      call();
      ADD_FAILURE() << what << " did not throw";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.source(), "rec.jsonl") << what;
      EXPECT_EQ(e.line(), 42) << what;
    }
  };
  // A string member stands in for the wrong type of every accessor but
  // string_member, which gets a number.
  for (const char* key : {"missing", "s"}) {
    expect_located([&] { number_member(v, key, "rec.jsonl", 42); }, key);
    expect_located([&] { uint_member(v, key, "rec.jsonl", 42); }, key);
    expect_located([&] { bool_member(v, key, "rec.jsonl", 42); }, key);
    expect_located([&] { array_member(v, key, "rec.jsonl", 42); }, key);
    expect_located([&] { object_member(v, key, "rec.jsonl", 42); }, key);
  }
  for (const char* key : {"missing", "n"})
    expect_located([&] { string_member(v, key, "rec.jsonl", 42); }, key);
  expect_located([&] { member(v, "missing", "rec.jsonl", 42); }, "member");
  // uint_member also rejects a number that is no whole nonnegative count.
  expect_located([&] { uint_member(v, "n", "rec.jsonl", 42); }, "fraction");

  EXPECT_DOUBLE_EQ(number_member(v, "n", "t", 1), 1.5);
  EXPECT_EQ(uint_member(v, "u", "t", 1), 7u);
  EXPECT_EQ(string_member(v, "s", "t", 1), "x");
  EXPECT_TRUE(bool_member(v, "b", "t", 1));
  EXPECT_EQ(array_member(v, "a", "t", 1).size(), 1u);
  EXPECT_TRUE(object_member(v, "o", "t", 1).empty());
  EXPECT_TRUE(member(v, "b", "t", 1).is_bool());
}

TEST(ServeProtocol, DeeplyNestedMessageIsAParseErrorNotACrash) {
  // 30,000 unclosed '[' used to recurse once per bracket and overflow the
  // reader thread's stack; now the parser stops at the cap.
  const std::string line = "{\"type\":\"request\",\"x\":" +
                           std::string(30000, '[');
  try {
    parse_message(line, "wire", 3);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }
}

RequestMessage sample_request() {
  RequestMessage message;
  message.id = "R7";
  net::VnetRequest request("R7");
  request.add_node(1.25);
  request.add_node(1.75);
  request.add_node(1.5);
  request.add_link(0, 1, 1.125);
  request.add_link(0, 2, 1.375);
  request.set_temporal(2.5, 9.0, 3.25);
  message.request = std::move(request);
  message.mapping = std::vector<net::NodeId>{4, 0, 9};
  return message;
}

TEST(ServeProtocol, RequestRoundTripsThroughEncodeAndParse) {
  const RequestMessage original = sample_request();
  const InMessage parsed = parse_message(encode_request(original), "test");
  ASSERT_EQ(parsed.kind, MessageKind::kRequest);
  const RequestMessage& got = parsed.request;
  EXPECT_EQ(got.id, "R7");
  EXPECT_DOUBLE_EQ(got.request.earliest_start(), 2.5);
  EXPECT_DOUBLE_EQ(got.request.latest_end(), 9.0);
  EXPECT_DOUBLE_EQ(got.request.duration(), 3.25);
  ASSERT_EQ(got.request.num_nodes(), 3);
  EXPECT_DOUBLE_EQ(got.request.node_demand(1), 1.75);
  ASSERT_EQ(got.request.num_links(), 2);
  EXPECT_EQ(got.request.link(1).from, 0);
  EXPECT_EQ(got.request.link(1).to, 2);
  EXPECT_DOUBLE_EQ(got.request.link(1).demand, 1.375);
  ASSERT_TRUE(got.mapping.has_value());
  EXPECT_EQ(*got.mapping, (std::vector<net::NodeId>{4, 0, 9}));
}

TEST(ServeProtocol, ControlMessagesParse) {
  EXPECT_EQ(parse_message(R"({"type":"stats"})", "t").kind,
            MessageKind::kStats);
  EXPECT_EQ(parse_message(R"({"type":"reopt"})", "t").kind,
            MessageKind::kReopt);
  EXPECT_EQ(parse_message(R"({"type":"drain"})", "t").kind,
            MessageKind::kDrain);
}

TEST(ServeProtocol, RejectsInvalidRequests) {
  // Unknown type.
  EXPECT_THROW(parse_message(R"({"type":"nope"})", "t"), ParseError);
  // Missing id.
  EXPECT_THROW(parse_message(
                   R"({"type":"request","t_s":0,"t_e":2,"d":1,"nodes":[1]})",
                   "t"),
               ParseError);
  // Window shorter than duration.
  EXPECT_THROW(
      parse_message(
          R"({"type":"request","id":"a","t_s":0,"t_e":1,"d":2,"nodes":[1]})",
          "t"),
      ParseError);
  // Link endpoint out of range.
  EXPECT_THROW(
      parse_message(R"({"type":"request","id":"a","t_s":0,"t_e":2,"d":1,)"
                    R"("nodes":[1],"links":[[0,5,1]]})",
                    "t"),
      ParseError);
  // Mapping size mismatch.
  EXPECT_THROW(
      parse_message(R"({"type":"request","id":"a","t_s":0,"t_e":2,"d":1,)"
                    R"("nodes":[1,1],"mapping":[0]})",
                    "t"),
      ParseError);
  // Negative demand.
  EXPECT_THROW(
      parse_message(
          R"({"type":"request","id":"a","t_s":0,"t_e":2,"d":1,"nodes":[-1]})",
          "t"),
      ParseError);
}

TEST(ServeProtocol, RejectsOutOfIntRangeIndicesWithoutCasting) {
  // Values far outside int's range must be rejected by comparing the
  // double, never by casting it first (the cast itself is UB).
  EXPECT_THROW(
      parse_message(R"({"type":"request","id":"a","t_s":0,"t_e":2,"d":1,)"
                    R"("nodes":[1,1],"links":[[0,1e20,1]]})",
                    "t"),
      ParseError);
  EXPECT_THROW(
      parse_message(R"({"type":"request","id":"a","t_s":0,"t_e":2,"d":1,)"
                    R"("nodes":[1],"mapping":[1e20]})",
                    "t"),
      ParseError);
  EXPECT_THROW(
      parse_message(R"({"type":"request","id":"a","t_s":0,"t_e":2,"d":1,)"
                    R"("nodes":[1],"mapping":[2147483648]})",
                    "t"),
      ParseError);
  EXPECT_THROW(
      parse_message(R"({"type":"request","id":"a","t_s":0,"t_e":2,"d":1,)"
                    R"("nodes":[1],"mapping":[1.5]})",
                    "t"),
      ParseError);
  // The largest representable id still parses.
  const InMessage ok = parse_message(
      R"({"type":"request","id":"a","t_s":0,"t_e":2,"d":1,)"
      R"("nodes":[1],"mapping":[2147483647]})",
      "t");
  ASSERT_TRUE(ok.request.mapping.has_value());
  EXPECT_EQ((*ok.request.mapping)[0], 2147483647);
}

TEST(ServeProtocol, EncodesDecisionsErrorsAndBye) {
  Decision accepted;
  accepted.id = "R1";
  accepted.accepted = true;
  accepted.start = 2.0;
  accepted.end = 5.0;
  accepted.mode = "exact";
  accepted.latency_ms = 1.5;
  const std::string a = encode_decision(accepted);
  EXPECT_NE(a.find("\"accepted\":true"), std::string::npos);
  EXPECT_NE(a.find("\"start\":2"), std::string::npos);
  EXPECT_EQ(a.find("\"reason\""), std::string::npos);

  Decision rejected;
  rejected.id = "R2";
  rejected.reason = "overload";
  rejected.mode = "shed";
  const std::string r = encode_decision(rejected);
  EXPECT_NE(r.find("\"accepted\":false"), std::string::npos);
  EXPECT_NE(r.find("\"reason\":\"overload\""), std::string::npos);

  EXPECT_EQ(encode_bye(12), "{\"type\":\"bye\",\"decided\":12}");
  EXPECT_NE(encode_error("bad \"line\""), encode_error("other"));
  // Every encoded line is itself parseable JSON.
  EXPECT_NO_THROW(parse_json(a, "t"));
  EXPECT_NO_THROW(parse_json(r, "t"));
  EXPECT_NO_THROW(parse_json(encode_error("x\"y"), "t"));
  EXPECT_NO_THROW(parse_json(encode_stats("\"active\":3"), "t"));
}

}  // namespace
}  // namespace tvnep::serve
