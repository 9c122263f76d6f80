#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/snapshot.h"

namespace ocdd::serve {
namespace {

/// Pulls every frame (and the terminal error, if any) out of a decoder.
struct DecodeResult {
  std::vector<std::string> frames;
  FrameError error = FrameError::kNone;
};

DecodeResult DrainDecoder(FrameDecoder& decoder) {
  DecodeResult result;
  std::string payload;
  FrameError error;
  for (;;) {
    FrameDecoder::Event ev = decoder.Next(&payload, &error);
    if (ev == FrameDecoder::Event::kFrame) {
      result.frames.push_back(payload);
      continue;
    }
    if (ev == FrameDecoder::Event::kError) result.error = error;
    return result;
  }
}

TEST(FrameCodecTest, RoundTripsPayloads) {
  for (const std::string& payload :
       {std::string(""), std::string("{}"), std::string("hello"),
        std::string(5000, 'x'), std::string("\0\x01\xff binary", 10)}) {
    FrameDecoder decoder;
    decoder.Feed(EncodeFrame(payload));
    DecodeResult result = DrainDecoder(decoder);
    ASSERT_EQ(result.frames.size(), 1u);
    EXPECT_EQ(result.frames[0], payload);
    EXPECT_EQ(result.error, FrameError::kNone);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(FrameCodecTest, DecodesBackToBackFrames) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame("one") + EncodeFrame("two") + EncodeFrame("three"));
  DecodeResult result = DrainDecoder(decoder);
  ASSERT_EQ(result.frames.size(), 3u);
  EXPECT_EQ(result.frames[0], "one");
  EXPECT_EQ(result.frames[2], "three");
}

TEST(FrameCodecTest, ByteAtATimeFeedingMatchesWholeBuffer) {
  const std::string stream = EncodeFrame("alpha") + EncodeFrame("beta");
  FrameDecoder decoder;
  std::vector<std::string> frames;
  std::string payload;
  FrameError error;
  for (char c : stream) {
    decoder.Feed(&c, 1);
    while (decoder.Next(&payload, &error) == FrameDecoder::Event::kFrame) {
      frames.push_back(payload);
    }
    EXPECT_EQ(error, FrameError::kNone);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "alpha");
  EXPECT_EQ(frames[1], "beta");
}

TEST(FrameCodecTest, BadMagicIsTypedAndSticky) {
  std::string frame = EncodeFrame("payload");
  frame[0] ^= 0x55;
  FrameDecoder decoder;
  decoder.Feed(frame);
  EXPECT_EQ(DrainDecoder(decoder).error, FrameError::kBadMagic);
  // The stream is dead: even valid bytes afterwards keep reporting.
  decoder.Feed(EncodeFrame("fine"));
  EXPECT_EQ(DrainDecoder(decoder).error, FrameError::kBadMagic);
}

TEST(FrameCodecTest, CrcMismatchIsTyped) {
  std::string frame = EncodeFrame("payload");
  frame.back() = static_cast<char>(frame.back() ^ 0x01);
  FrameDecoder decoder;
  decoder.Feed(frame);
  EXPECT_EQ(DrainDecoder(decoder).error, FrameError::kCrcMismatch);
}

TEST(FrameCodecTest, OversizedLengthRejectedFromHeaderAlone) {
  // An adversarial 4 GiB declared length must be rejected from the 12
  // header bytes, without waiting for (or buffering) any payload.
  ByteWriter w;
  w.U32(kFrameMagic);
  w.U32(0xFFFFFFFFu);
  w.U32(0);
  FrameDecoder decoder;
  decoder.Feed(w.Take());
  EXPECT_EQ(DrainDecoder(decoder).error, FrameError::kOversized);
}

TEST(FrameCodecTest, RespectsCustomPayloadLimit) {
  FrameLimits limits;
  limits.max_payload_bytes = 8;
  FrameDecoder decoder(limits);
  decoder.Feed(EncodeFrame("123456789"));
  EXPECT_EQ(DrainDecoder(decoder).error, FrameError::kOversized);
}

TEST(FrameCodecTest, PartialHeaderNeedsMore) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame("abc").substr(0, 7));
  std::string payload;
  FrameError error;
  EXPECT_EQ(decoder.Next(&payload, &error), FrameDecoder::Event::kNeedMore);
}

TEST(RequestParseTest, RoundTripsRunRequest) {
  ServeRequest req;
  req.kind = "run";
  req.id = "req-7";
  req.tenant = "alice";
  req.algo = "discover";
  req.source = "LINEITEM";
  req.rows = 500;
  req.seed = 7;
  req.max_level = 4;
  req.use_cache = false;
  const std::string payload = SerializeRequest(req);
  auto parsed = ParseRequest(payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, "req-7");
  EXPECT_EQ(parsed->tenant, "alice");
  EXPECT_EQ(parsed->algo, "discover");
  EXPECT_EQ(parsed->source, "LINEITEM");
  EXPECT_EQ(parsed->rows, 500u);
  EXPECT_EQ(parsed->seed, 7u);
  EXPECT_EQ(parsed->max_level, 4u);
  EXPECT_FALSE(parsed->use_cache);
  EXPECT_EQ(SerializeRequest(*parsed), payload);
  EXPECT_EQ(RequestDigest(*parsed), RequestDigest(req));
}

TEST(RequestParseTest, SeedsRoundTripUpToTwoToThe53) {
  ServeRequest req;
  req.source = "NUMBERS";
  req.seed = 9007199254740991u;  // 2^53 - 1, the largest exact double
  auto parsed = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, req.seed);
  req.seed = 12345678901u;  // more digits than %.10g kept
  parsed = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, req.seed);
  // 2^53 + 1 arrives as 2^53 and is refused rather than run as another seed.
  req.seed = 9007199254740993u;
  parsed = ParseRequest(SerializeRequest(req));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(RequestParseTest, MaxLevelOnlyForTasksThatReadIt) {
  auto parsed = ParseRequest(
      R"({"kind":"run","source":"NUMBERS","algo":"fastod","max_level":2})");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseRequest(R"({"kind":"run","source":"NUMBERS",)"
                           R"("algo":"discover","max_level":2})")
                  .ok());
}

TEST(RequestParseTest, DefaultsApply) {
  auto parsed = ParseRequest(R"({"kind":"run","source":"NUMBERS"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->tenant, "default");
  EXPECT_EQ(parsed->algo, "discover");
  EXPECT_EQ(parsed->seed, 42u);
  EXPECT_TRUE(parsed->use_cache);
}

TEST(RequestParseTest, RejectsBadShapes) {
  // Each entry is an invalid payload and the reason it must be refused.
  const char* bad[] = {
      "not json at all",
      "[1,2,3]",
      R"({"kind":"explode"})",
      R"({"kind":"run"})",                           // no source
      R"({"kind":"run","source":"x","algo":"rm"})",  // bad algo
      R"({"kind":"run","source":"x","tenant":""})",  // empty tenant
      R"({"kind":"run","source":"x","rows":-5})",
      R"({"kind":"run","source":"x","rows":1e18})",
      R"({"kind":"run","source":"x","max_level":999})",
  };
  for (const char* payload : bad) {
    EXPECT_FALSE(ParseRequest(payload).ok()) << payload;
  }
}

TEST(RequestParseTest, EnforcesStringLimitsAndControlBytes) {
  RequestLimits limits;
  limits.max_source_bytes = 8;
  EXPECT_FALSE(
      ParseRequest(R"({"kind":"run","source":"123456789"})", limits).ok());
  // Control bytes in strings never cross the boundary (they would end up in
  // worker argv and logs).
  EXPECT_FALSE(
      ParseRequest("{\"kind\":\"run\",\"source\":\"a\\u0007b\"}").ok());
  EXPECT_FALSE(
      ParseRequest("{\"kind\":\"run\",\"source\":\"x\",\"id\":\"a\\nb\"}")
          .ok());
}

TEST(RequestParseTest, UnknownMembersIgnoredForForwardCompat) {
  auto parsed = ParseRequest(
      R"({"kind":"run","source":"NUMBERS","future_flag":{"nested":[1]}})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->source, "NUMBERS");
}

TEST(ResponseParseTest, RoundTripsEveryStatus) {
  for (const char* status : {"ok", "rejected", "timeout", "error"}) {
    ServeResponse resp;
    resp.id = "r";
    resp.status = status;
    resp.reject_reason = std::string(status) == "rejected" ? "queue_full" : "";
    resp.attempts = 2;
    resp.cache = "miss";
    const std::string payload = SerializeResponse(resp);
    auto parsed = ParseResponse(payload);
    ASSERT_TRUE(parsed.ok()) << payload;
    EXPECT_EQ(parsed->status, status);
    EXPECT_EQ(parsed->attempts, 2);
    EXPECT_EQ(SerializeResponse(*parsed), payload);
  }
}

TEST(ResponseParseTest, CarriesReportDocument) {
  ServeResponse resp;
  resp.status = "ok";
  auto doc = report::ParseJson(R"({"completed":true,"ocds":[{"lhs":["A"]}]})");
  ASSERT_TRUE(doc.ok());
  resp.have_report = true;
  resp.report = *doc;
  auto parsed = ParseResponse(SerializeResponse(resp));
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->have_report);
  EXPECT_TRUE(parsed->report["completed"].bool_value());
}

TEST(ResponseParseTest, RejectsUnknownStatus) {
  EXPECT_FALSE(ParseResponse(R"({"status":"partial"})").ok());
  EXPECT_FALSE(ParseResponse("garbage").ok());
}

TEST(RequestDigestTest, SensitiveToComputeFieldsOnly) {
  ServeRequest a;
  a.source = "NUMBERS";
  a.rows = 100;
  ServeRequest b = a;

  b.tenant = "other";
  b.id = "different";
  b.use_cache = false;
  EXPECT_EQ(RequestDigest(a), RequestDigest(b))
      << "tenant/id/cache-opt must not split the cache key";

  b = a;
  b.rows = 101;
  EXPECT_NE(RequestDigest(a), RequestDigest(b));
  b = a;
  b.algo = "fds";
  EXPECT_NE(RequestDigest(a), RequestDigest(b));
  b = a;
  b.seed = 43;
  EXPECT_NE(RequestDigest(a), RequestDigest(b));
  b = a;
  b.max_level = 3;
  EXPECT_NE(RequestDigest(a), RequestDigest(b));

  // Field-separator check: moving a byte across the algo/source boundary
  // must change the digest.
  ServeRequest c;
  c.algo = "fds";
  c.source = "sx";
  ServeRequest d;
  d.algo = "fdss";
  d.source = "x";
  EXPECT_NE(RequestDigest(c), RequestDigest(d));
}

}  // namespace
}  // namespace ocdd::serve
