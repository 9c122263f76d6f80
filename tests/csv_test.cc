#include "relation/csv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <random>
#include <regex>
#include <sstream>

#include "common/io_env.h"
#include "common/run_context.h"
#include "relation/coded_relation.h"

namespace ocdd::rel {
namespace {

TEST(CsvReadTest, BasicWithHeaderAndTypes) {
  auto r = ReadCsvString("a,b,c\n1,2.5,x\n3,4.0,y\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->num_columns(), 3u);
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kInt);
  EXPECT_EQ(r->schema().attribute(1).type, DataType::kDouble);
  EXPECT_EQ(r->schema().attribute(2).type, DataType::kString);
  EXPECT_EQ(r->ValueAt(1, 0), Value::Int(3));
  EXPECT_EQ(r->ValueAt(0, 2), Value::String("x"));
}

TEST(CsvReadTest, NoHeaderGeneratesNames) {
  CsvOptions opts;
  opts.has_header = false;
  auto r = ReadCsvString("1,2\n3,4\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).name, "col0");
  EXPECT_EQ(r->num_rows(), 2u);
}

TEST(CsvReadTest, QuotedFieldsWithSeparatorAndNewline) {
  auto r = ReadCsvString("a,b\n\"x,y\",\"line1\nline2\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ValueAt(0, 0), Value::String("x,y"));
  EXPECT_EQ(r->ValueAt(0, 1), Value::String("line1\nline2"));
}

TEST(CsvReadTest, EscapedQuotes) {
  auto r = ReadCsvString("a\n\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ValueAt(0, 0), Value::String("he said \"hi\""));
}

TEST(CsvReadTest, CrLfLineEndings) {
  auto r = ReadCsvString("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->ValueAt(1, 1), Value::Int(4));
}

TEST(CsvReadTest, NullMarkers) {
  auto r = ReadCsvString("a,b\n1,?\n,x\n2,y\n");
  ASSERT_TRUE(r.ok());
  // '?' and empty are NULL; column a stays int, b stays string.
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kInt);
  EXPECT_TRUE(r->ValueAt(0, 1).is_null());
  EXPECT_TRUE(r->ValueAt(1, 0).is_null());
  EXPECT_EQ(r->ValueAt(2, 0), Value::Int(2));
}

TEST(CsvReadTest, RaggedRowIsError) {
  auto r = ReadCsvString("a,b\n1,2\n3\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, UnterminatedQuoteIsError) {
  auto r = ReadCsvString("a\n\"oops\n");
  EXPECT_FALSE(r.ok());
}

TEST(CsvReadTest, UnterminatedQuoteAtEofIsParseError) {
  // The quote opens and the input ends without closing it or a newline.
  auto r = ReadCsvString("a,b\n1,\"no close");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, EmbeddedNulByteIsParseError) {
  std::string input("a,b\n1,x\0y\n", 10);
  ASSERT_EQ(input.size(), 10u);  // the NUL survived construction
  auto r = ReadCsvString(input);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, NulByteInsideQuotedFieldIsParseError) {
  std::string input("a\n\"x\0y\"\n", 8);
  auto r = ReadCsvString(input);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvReadTest, EmptyInputIsError) {
  EXPECT_FALSE(ReadCsvString("").ok());
}

TEST(CsvReadTest, CustomSeparator) {
  CsvOptions opts;
  opts.separator = ';';
  auto r = ReadCsvString("a;b\n1;2\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ValueAt(0, 1), Value::Int(2));
}

TEST(CsvReadTest, ForceLexicographicTreatsEverythingAsString) {
  CsvOptions opts;
  opts.type_inference.force_lexicographic = true;
  auto r = ReadCsvString("a\n10\n9\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kString);
}

TEST(CsvReadTest, PlusMinusIsNotAnInteger) {
  auto r = ReadCsvString("a\n+-5\n3\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kString);
  EXPECT_EQ(r->ValueAt(0, 0), Value::String("+-5"));
}

TEST(CsvReadTest, ColumnsRestartAtTheNextType) {
  // "x" arrives last, after the column was filled as int and then double.
  auto r = ReadCsvString("a,b,c\n1,1,?\n2,2.5,\n3,x, NULL \n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->schema().attribute(0).type, DataType::kInt);
  EXPECT_EQ(r->schema().attribute(1).type, DataType::kString);
  EXPECT_EQ(r->ValueAt(1, 1), Value::String("2.5"));
  EXPECT_EQ(r->schema().attribute(2).type, DataType::kString);  // all NULL
  EXPECT_TRUE(r->ValueAt(2, 2).is_null());
  auto d = ReadCsvString("d\n 7 \n?\n-0.0\n");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->schema().attribute(0).type, DataType::kDouble);
  EXPECT_EQ(d->ValueAt(0, 0), Value::Double(7.0));
  EXPECT_TRUE(d->ValueAt(1, 0).is_null());
}

// Quoting cases: the exact unescaped values, and the exact byte offsets at
// which a field limit fails.
TEST(CsvReadTest, QuotedFieldsUnescapeExactly) {
  struct Case {
    const char* text;
    const char* value;
  };
  for (const Case& c : {Case{"a\n\"a\"\"b\"\n", "a\"b"},
                        Case{"a\n\"ab\"cd\n", "abcd"},
                        Case{"a\n\"ab\"c\"d\n", "abc\"d"},
                        Case{"a\n\"a\"\"\"\n", "a\""},
                        Case{"a,b\n\"x\ny\",1\n", "x\ny"}}) {
    auto r = ReadCsvString(c.text);
    ASSERT_TRUE(r.ok()) << c.text;
    EXPECT_EQ(r->ValueAt(0, 0), Value::String(c.value)) << c.text;
  }
  auto empty = ReadCsvString("a,b\n\"\",1\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->ValueAt(0, 0).is_null());
}

TEST(CsvReadTest, FieldLimitCountsUnescapedBytes) {
  struct Case {
    const char* text;
    std::size_t max_field_bytes;
    const char* error;  // nullptr: the read succeeds
  };
  for (const Case& c : {
           Case{"a\n1234\n", 4, nullptr},
           Case{"a\n12345\n", 4, "at byte 6 "},
           Case{"a\n\"1234\"\n", 4, nullptr},
           Case{"a\n\"12345\"\n", 4, "at byte 7 "},
           // `""` counts one byte and is never itself rejected.
           Case{"a\n\"a\"\"b\"\n", 3, nullptr},
           Case{"a\n\"a\"\"b\"\n", 2, "at byte 6 "},
           Case{"a\n\"a\"\"\"\n", 2, nullptr},
           // Bytes after the closing quote count too.
           Case{"a\n\"ab\"cd\n", 4, nullptr},
           Case{"a\n\"ab\"cd\n", 3, "at byte 7 "},
           Case{"a,b\n\"x\ny\",1\n", 3, nullptr},
           Case{"a,b\n\"x\ny\",1\n", 2, "at byte 7 "},
       }) {
    CsvOptions opts;
    opts.limits.max_field_bytes = c.max_field_bytes;
    auto r = ReadCsvString(c.text, opts);
    if (c.error == nullptr) {
      EXPECT_TRUE(r.ok()) << c.text << ": " << r.status().ToString();
      continue;
    }
    ASSERT_FALSE(r.ok()) << c.text;
    EXPECT_NE(r.status().message().find("field_too_large"), std::string::npos);
    EXPECT_NE(r.status().message().find(c.error), std::string::npos)
        << c.text << ": " << r.status().message();
  }
}

TEST(CsvWriteTest, RoundTrip) {
  std::string input = "a,b,c\n1,x y,2.5\n3,\"q,r\",4.5\n";
  auto r = ReadCsvString(input);
  ASSERT_TRUE(r.ok());
  std::string out = WriteCsvString(*r);
  auto r2 = ReadCsvString(out);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), r->num_rows());
  for (std::size_t i = 0; i < r->num_rows(); ++i) {
    for (std::size_t c = 0; c < r->num_columns(); ++c) {
      EXPECT_EQ(r2->ValueAt(i, c), r->ValueAt(i, c)) << i << "," << c;
    }
  }
}

TEST(CsvWriteTest, QuotesSpecialFields) {
  auto r = ReadCsvString("a\n\"x,y\"\n");
  ASSERT_TRUE(r.ok());
  std::string out = WriteCsvString(*r);
  EXPECT_EQ(out, "a\n\"x,y\"\n");
}

TEST(CsvReadTest, Utf8BomIsStripped) {
  auto r = ReadCsvString("\xEF\xBB\xBF" "a,b\n1,2\n");
  ASSERT_TRUE(r.ok());
  // Without stripping, the first column would be named "\xEF\xBB\xBFa".
  EXPECT_EQ(r->schema().attribute(0).name, "a");
  EXPECT_EQ(r->num_rows(), 1u);
}

TEST(CsvReadTest, LoneCrTerminatesRecords) {
  // Classic-Mac line endings: lone \r behaves exactly like \r\n and \n.
  auto r = ReadCsvString("a,b\r1,2\r3,4\r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->ValueAt(1, 1), Value::Int(4));
}

TEST(CsvReadTest, MixedTerminatorsAgree) {
  auto lf = ReadCsvString("a\n1\n2\n3\n");
  auto cr = ReadCsvString("a\r1\r2\r3\r");
  auto crlf = ReadCsvString("a\r\n1\r\n2\r\n3\r\n");
  auto mixed = ReadCsvString("a\n1\r2\r\n3\n");
  ASSERT_TRUE(lf.ok() && cr.ok() && crlf.ok() && mixed.ok());
  EXPECT_EQ(cr->num_rows(), lf->num_rows());
  EXPECT_EQ(crlf->num_rows(), lf->num_rows());
  EXPECT_EQ(mixed->num_rows(), lf->num_rows());
}

TEST(CsvReadTest, CrInsideQuotesIsData) {
  auto r = ReadCsvString("a\n\"x\ry\"\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ValueAt(0, 0), Value::String("x\ry"));
}

TEST(CsvReadTest, FailErrorNamesByteOffsetAndRow) {
  // "3" starts at byte 8; it is physical record 3 (header is row 1).
  auto r = ReadCsvString("a,b\n1,2\n3\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("ragged_row"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("byte 8"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("row 3"), std::string::npos)
      << r.status().message();
}

TEST(CsvReadTest, MaxFieldBytesEnforced) {
  CsvOptions opts;
  opts.limits.max_field_bytes = 8;
  auto ok = ReadCsvString("a\n12345678\n", opts);
  EXPECT_TRUE(ok.ok());
  auto bad = ReadCsvString("a\n123456789\n", opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("field_too_large"), std::string::npos);
}

TEST(CsvReadTest, MaxFieldBytesEnforcedInsideQuotes) {
  CsvOptions opts;
  opts.limits.max_field_bytes = 4;
  auto bad = ReadCsvString("a\n\"123456789\"\n", opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("field_too_large"), std::string::npos);
}

TEST(CsvReadTest, MaxRecordBytesEnforced) {
  CsvOptions opts;
  opts.limits.max_record_bytes = 16;
  auto bad = ReadCsvString("a,b\n" + std::string(40, 'x') + ",1\n", opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("record_too_large"),
            std::string::npos);
}

TEST(CsvReadTest, MaxColumnsEnforced) {
  CsvOptions opts;
  opts.limits.max_columns = 3;
  auto ok = ReadCsvString("a,b,c\n1,2,3\n", opts);
  EXPECT_TRUE(ok.ok());
  auto bad = ReadCsvString("a,b,c,d\n1,2,3,4\n", opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("too_many_columns"),
            std::string::npos);
}

TEST(CsvReadTest, MaxRowsIsAlwaysFatal) {
  CsvOptions opts;
  opts.limits.max_rows = 2;
  opts.on_bad_row = BadRowPolicy::kQuarantine;  // even under lax policy
  auto bad = ReadCsvString("a\n1\n2\n3\n", opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("too_many_rows"), std::string::npos);
}

TEST(CsvPolicyTest, SkipDropsAndCountsBadRows) {
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kSkip;
  std::string nul_row("\0,9\n", 4);
  auto r = ReadCsvWithReport("a,b\n1,2\nragged\n3,4\n" + nul_row + "5,6\n",
                             opts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r->relation.num_rows(), 3u);
  EXPECT_EQ(r->report.records_total, 5u);
  EXPECT_EQ(r->report.rows_ingested, 3u);
  EXPECT_EQ(r->report.rows_rejected, 2u);
  EXPECT_EQ(r->report.rejected_by_code.count("ragged_row"), 1u);
  EXPECT_EQ(r->report.rejected_by_code.count("embedded_nul"), 1u);
  EXPECT_TRUE(r->report.quarantined_rows.empty());
  ASSERT_EQ(r->report.samples.size(), 2u);
  EXPECT_EQ(r->report.samples[0].code, IngestErrorCode::kRaggedRow);
  EXPECT_EQ(r->report.samples[0].row, 3u);
}

TEST(CsvPolicyTest, QuarantineKeepsRawRowsInMemory) {
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kQuarantine;
  auto r = ReadCsvWithReport("a,b\nx\n1,2\ny,y,y\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->relation.num_rows(), 1u);
  ASSERT_EQ(r->report.quarantined_rows.size(), 2u);
  EXPECT_EQ(r->report.quarantined_rows[0], "x");
  EXPECT_EQ(r->report.quarantined_rows[1], "y,y,y");
  EXPECT_TRUE(r->report.quarantine_path.empty());
}

TEST(CsvPolicyTest, QuarantineWritesRawRowsToFile) {
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kQuarantine;
  opts.quarantine_path = ::testing::TempDir() + "/ocdd_quarantine.txt";
  auto r = ReadCsvWithReport("a,b\nbad row\n1,2\nworse,row,here\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->report.quarantine_path, opts.quarantine_path);
  EXPECT_TRUE(r->report.quarantined_rows.empty());  // moved to the file
  std::ifstream in(opts.quarantine_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "bad row\nworse,row,here\n");
}

TEST(CsvPolicyTest, QuarantinePreservesCrTerminatedRawBytes) {
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kQuarantine;
  auto r = ReadCsvWithReport("a,b\r\nbad\r\n1,2\r\n", opts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->report.quarantined_rows.size(), 1u);
  // Terminator (including the \r of \r\n) is stripped from the raw row.
  EXPECT_EQ(r->report.quarantined_rows[0], "bad");
}

TEST(CsvPolicyTest, RecoveryAfterBrokenQuoteSalvagesLaterRows) {
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kSkip;
  opts.limits.max_field_bytes = 8;
  // The quoted field blows the limit mid-record; the reader must resync at
  // the next line and still ingest the rows after it.
  auto r = ReadCsvWithReport("a,b\n\"0123456789xyz,2\n3,4\n5,6\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->relation.num_rows(), 2u);
  EXPECT_EQ(r->report.rejected_by_code.count("field_too_large"), 1u);
}

TEST(CsvPolicyTest, RecoveryResyncsAtEveryLineEnd) {
  // A quote left open takes its record up to the next line end, whichever
  // terminator the file uses, and no further.
  const std::string lf = "a,b\n1,2\n\"3,4\n5,6\n7,8\n9,10\n";
  for (const char* eol : {"\n", "\r", "\r\n"}) {
    SCOPED_TRACE(testing::PrintToString(std::string(eol)));
    std::string text;
    for (char c : lf) text += c == '\n' ? std::string(eol) : std::string(1, c);
    CsvOptions opts;
    opts.on_bad_row = BadRowPolicy::kQuarantine;
    auto r = ReadCsvWithReport(text, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->relation.num_rows(), 4u);
    EXPECT_EQ(r->report.rows_ingested, 4u);
    EXPECT_EQ(r->report.rows_rejected, 1u);
    EXPECT_EQ(r->report.rejected_by_code.count("unterminated_quote"), 1u);
    ASSERT_EQ(r->report.quarantined_rows.size(), 1u);
    EXPECT_EQ(r->report.quarantined_rows[0], "\"3,4");
    ASSERT_EQ(r->report.samples.size(), 1u);
    const IngestError& e = r->report.samples[0];
    EXPECT_EQ(e.row, 3u);
    EXPECT_EQ(e.excerpt, "\"3,4");
    // The bad record starts after two lines of this file's line ends.
    EXPECT_EQ(e.byte_offset, 8u + 2 * (std::string(eol).size() - 1));
  }
}

TEST(CsvPolicyTest, RecoveryResyncsAtALoneCrInAnLfFile) {
  // Recovery is quote-blind, and outside quotes the scanner ends a record
  // at a lone CR whatever the file's other line ends are; so the open
  // quote's record ends there, and "5,6" after it is a record of its own.
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kQuarantine;
  auto r = ReadCsvWithReport("a,b\n1,2\n\"3,4\r5,6\n7,8\n", opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->report.rows_ingested, 3u);
  EXPECT_EQ(r->report.rows_rejected, 1u);
  ASSERT_EQ(r->report.quarantined_rows.size(), 1u);
  EXPECT_EQ(r->report.quarantined_rows[0], "\"3,4");
  ASSERT_EQ(r->relation.num_rows(), 3u);
}

TEST(CsvPolicyTest, BadHeaderIsFatalUnderEveryPolicy) {
  for (BadRowPolicy policy : {BadRowPolicy::kFail, BadRowPolicy::kSkip,
                              BadRowPolicy::kQuarantine}) {
    CsvOptions opts;
    opts.on_bad_row = policy;
    std::string nul_header("a,\0\n1,2\n", 8);
    auto r = ReadCsvWithReport(nul_header, opts);
    EXPECT_FALSE(r.ok()) << BadRowPolicyName(policy);
  }
}

TEST(CsvPolicyTest, RejectedRowsChargeRunContextBudget) {
  RunContext ctx;
  ctx.set_check_budget(3);
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kSkip;
  opts.run_context = &ctx;
  std::string text = "a,b\n";
  for (int i = 0; i < 10; ++i) text += "bad\n";
  auto r = ReadCsvWithReport(text, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kCheckBudget);
}

TEST(CsvPolicyTest, CleanInputReportsClean) {
  CsvOptions opts;
  opts.on_bad_row = BadRowPolicy::kQuarantine;
  auto r = ReadCsvWithReport("a,b\n1,2\n3,4\n", opts);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->report.clean());
  EXPECT_EQ(r->report.rows_ingested, 2u);
  EXPECT_TRUE(r->report.rejected_by_code.empty());
}

TEST(CsvWriteTest, SingleColumnEmptyValueSurvivesRoundTrip) {
  // A NULL in a single-column relation renders as "" — written unquoted it
  // would be a blank line and silently vanish on re-read.
  auto r = ReadCsvString("a\n\"\"\n1\n");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 2u);
  auto again = ReadCsvString(WriteCsvString(*r));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->num_rows(), 2u);
}

TEST(CsvWriteTest, RoundTripKeepsTypesAndCodes) {
  Relation::Builder b(Schema({Attribute{"i", DataType::kInt},
                              Attribute{"d", DataType::kDouble},
                              Attribute{"s", DataType::kString}}));
  const std::vector<std::vector<Value>> rows = {
      {Value::Int(-3), Value::Double(-0.0), Value::String("b,c")},
      {Value::Null(), Value::Double(0.1), Value::String("a\"q")},
      {Value::Int(10), Value::Null(), Value::String(" x ")},
      {Value::Int(9), Value::Double(1e300), Value::Null()},
      {Value::Int(-3), Value::Double(0.0), Value::String("line\nbreak")},
  };
  for (const auto& row : rows) ASSERT_TRUE(b.AddRow(row).ok());
  Relation original = std::move(b).Build();
  auto again = ReadCsvString(WriteCsvString(original));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->num_rows(), original.num_rows());
  for (std::size_t c = 0; c < original.num_columns(); ++c) {
    EXPECT_EQ(again->schema().attribute(c).type,
              original.schema().attribute(c).type);
  }
  for (bool lex : {false, true}) {
    EncodeOptions opts;
    opts.force_lexicographic = lex;
    CodedRelation a = CodedRelation::Encode(original, opts);
    CodedRelation b2 = CodedRelation::Encode(*again, opts);
    for (std::size_t c = 0; c < a.num_columns(); ++c) {
      EXPECT_EQ(a.column(c).codes, b2.column(c).codes) << c << " lex " << lex;
    }
  }
}

// ---- the line path against the byte-wise scanner ----

/// `lines` as CSV text, each ended by `eol`, every field quoted when
/// `quote`; an empty `line`, or one empty field, is a blank line either way.
std::string Render(const std::vector<std::vector<std::string>>& lines,
                   bool quote, const std::string& eol) {
  std::string out;
  for (const std::vector<std::string>& line : lines) {
    const bool blank = line.empty() || (line.size() == 1 && line[0].empty());
    for (std::size_t i = 0; i < line.size() && !blank; ++i) {
      if (i > 0) out += ',';
      out += quote ? "\"" + line[i] + "\"" : line[i];
    }
    out += eol;
  }
  return out;
}

/// The code and row of a failed read's ingest error, which do not depend
/// on the quoting (its byte offset and excerpt do).
std::string CodeAndRow(const Status& status) {
  static const std::regex kError(
      "(\\[[a-z_]+\\]) at byte [0-9]+ (\\(row [0-9]+)");
  std::smatch m;
  if (!std::regex_search(status.message(), m, kError)) return status.message();
  return m[1].str() + " " + m[2].str();
}

void ExpectSameRead(const Result<CsvRead>& a, const Result<CsvRead>& b) {
  ASSERT_EQ(a.ok(), b.ok()) << (a.ok() ? b : a).status().message();
  if (!a.ok()) {
    EXPECT_EQ(CodeAndRow(a.status()), CodeAndRow(b.status()));
    return;
  }
  const Relation& x = a->relation;
  const Relation& y = b->relation;
  ASSERT_EQ(x.num_columns(), y.num_columns());
  ASSERT_EQ(x.num_rows(), y.num_rows());
  for (std::size_t c = 0; c < x.num_columns(); ++c) {
    EXPECT_EQ(x.schema().attribute(c).name, y.schema().attribute(c).name);
    ASSERT_EQ(x.schema().attribute(c).type, y.schema().attribute(c).type)
        << "column " << c;
    for (std::size_t r = 0; r < x.num_rows(); ++r) {
      const Value u = x.ValueAt(r, c);
      const Value v = y.ValueAt(r, c);
      EXPECT_EQ(u.is_null(), v.is_null()) << r << "," << c;
      EXPECT_EQ(u, v) << r << "," << c;
      if (u.is_double() && v.is_double()) {
        EXPECT_EQ(std::signbit(u.double_value()),
                  std::signbit(v.double_value()));
      }
    }
  }
  const CsvIngestReport& p = a->report;
  const CsvIngestReport& q = b->report;
  EXPECT_EQ(p.records_total, q.records_total);
  EXPECT_EQ(p.rows_ingested, q.rows_ingested);
  EXPECT_EQ(p.rows_rejected, q.rows_rejected);
  EXPECT_EQ(p.rejected_by_code.ToString(), q.rejected_by_code.ToString());
  EXPECT_EQ(p.quarantined_rows.size(), q.quarantined_rows.size());
  ASSERT_EQ(p.samples.size(), q.samples.size());
  for (std::size_t i = 0; i < p.samples.size(); ++i) {
    EXPECT_EQ(p.samples[i].code, q.samples[i].code);
    EXPECT_EQ(p.samples[i].row, q.samples[i].row);
    EXPECT_EQ(p.samples[i].column, q.samples[i].column);
  }
}

TEST(CsvLinePathTest, QuoteFreeTextsReadAsWhenEveryFieldIsQuoted) {
  // Quoting every field sends every line through the byte-wise scanner.
  // Columns draw from ints, then numbers, then anything, with a few
  // fields from the widest pool, so columns widen at late rows too.
  const std::vector<std::vector<std::string>> pools = {
      {"1", "-2", "+3", "0", "-0", "42", "?", "", " 7 ", "NULL"},
      {"1", "-2", "+3", "0", "-0", "?", "", "4.5", "-.5", "1e3", "3.", " 8"},
      {"1", "-0", "", "?", "4.5", "abc", "x y", "12a", "null", "  ", "+-5",
       "..", "9999999999999999999"}};
  for (unsigned seed = 0; seed < 300; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&rng](std::size_t n) {
      return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    const std::size_t width = 1 + pick(4);
    std::vector<std::size_t> pool(width);
    for (std::size_t& p : pool) p = pick(pools.size());
    std::vector<std::vector<std::string>> lines;
    const std::size_t rows = pick(14);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t roll = pick(10);
      if (roll == 0) {
        lines.emplace_back();  // a blank line
        continue;
      }
      const std::size_t n = roll == 1 ? 1 + pick(width + 1) : width;
      std::vector<std::string> line;
      for (std::size_t c = 0; c < n; ++c) {
        const auto& from = pools[pick(10) == 0 ? 2 : pool[c % width]];
        line.push_back(from[pick(from.size())]);
      }
      lines.push_back(std::move(line));
    }
    const std::string bom = pick(3) == 0 ? "\xEF\xBB\xBF" : "";
    const std::string eol =
        std::vector<std::string>{"\n", "\r\n", "\r"}[pick(3)];
    for (BadRowPolicy policy : {BadRowPolicy::kFail, BadRowPolicy::kSkip,
                                BadRowPolicy::kQuarantine}) {
      for (bool header : {true, false}) {
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << " policy "
                     << BadRowPolicyName(policy) << " header " << header
                     << " eol "
                     << (eol == "\n" ? "LF" : eol == "\r" ? "CR" : "CRLF")
                     << "\n"
                     << Render(lines, false, "\n"));
        CsvOptions opts;
        opts.on_bad_row = policy;
        opts.has_header = header;
        ExpectSameRead(
            ReadCsvWithReport(bom + Render(lines, false, eol), opts),
            ReadCsvWithReport(bom + Render(lines, true, eol), opts));
      }
    }
  }
}

TEST(CsvLinePathTest, LateWideningReplaysTheRowsBefore) {
  // Column a widens to double at its fifth value and to string at its
  // sixth; c widens to double after "-0". Rejected records and blank lines
  // come first, and one accepted record is quoted (the byte-wise path).
  const std::string body =
      "1,p,7\n"
      "\n"
      "ragged\n"
      "2,q,-0\n"
      "\"3\",\"r\",\"8\"\n"
      "\n"
      "4,s,t,u\n"
      "4,s,1.5\n"
      "5.5,t,9\n"
      "x,u,10\n";
  const std::vector<std::string> a = {"1", "2", "3", "4", "5.5", "x"};
  const std::vector<double> c = {7, -0.0, 8, 1.5, 9, 10};
  for (BadRowPolicy policy : {BadRowPolicy::kSkip, BadRowPolicy::kQuarantine}) {
    for (bool header : {true, false}) {
      SCOPED_TRACE(testing::Message() << BadRowPolicyName(policy) << " header "
                                      << header);
      CsvOptions opts;
      opts.on_bad_row = policy;
      opts.has_header = header;
      auto r = ReadCsvWithReport((header ? "a,b,c\n" : "") + body, opts);
      ASSERT_TRUE(r.ok()) << r.status().message();
      EXPECT_EQ(r->report.records_total, 8u);
      EXPECT_EQ(r->report.rows_rejected, 2u);
      EXPECT_EQ(r->report.quarantined_rows.size(),
                policy == BadRowPolicy::kQuarantine ? 2u : 0u);
      EXPECT_EQ(r->report.samples.size(), 2u);
      const Relation& rel = r->relation;
      ASSERT_EQ(rel.num_rows(), 6u);
      ASSERT_EQ(rel.schema().attribute(0).type, DataType::kString);
      ASSERT_EQ(rel.schema().attribute(1).type, DataType::kString);
      ASSERT_EQ(rel.schema().attribute(2).type, DataType::kDouble);
      for (std::size_t row = 0; row < 6; ++row) {
        EXPECT_EQ(rel.ValueAt(row, 0), Value::String(a[row])) << row;
        EXPECT_EQ(rel.ValueAt(row, 2), Value::Double(c[row])) << row;
      }
      // Re-derived from the text, "-0" is −0.0, not the int 0 widened.
      EXPECT_TRUE(std::signbit(rel.ValueAt(1, 2).double_value()));
    }
  }
  // Lexicographic: every column is text, "-0" included.
  CsvOptions lex;
  lex.on_bad_row = BadRowPolicy::kSkip;
  lex.type_inference.force_lexicographic = true;
  auto r = ReadCsvWithReport("a,b,c\n" + body, lex);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->relation.ValueAt(1, 2), Value::String("-0"));
}

TEST(CsvLinePathTest, LimitsHoldExactlyOnQuoteFreeLines) {
  struct Case {
    std::string text;
    CsvLimits limits;
    const char* error;  // nullptr: the read succeeds
  };
  auto limits = [](std::size_t field, std::size_t record,
                   std::size_t columns) {
    CsvLimits l;
    l.max_field_bytes = field;
    l.max_record_bytes = record;
    l.max_columns = columns;
    return l;
  };
  const std::vector<Case> cases = {
      // A field of exactly max_field_bytes; one byte more fails at it.
      {"a,b\n1234,5\n", limits(4, 64, 8), nullptr},
      {"a,b\n12345,5\n", limits(4, 64, 8), "[field_too_large] at byte 8 "},
      {"a,b\n5,1234\n", limits(4, 64, 8), nullptr},
      {"a,b\n5,12345", limits(4, 64, 8), "[field_too_large] at byte 10 "},
      // A record of max_record_bytes − 1 and its terminator; one byte
      // more fails at the terminator.
      {"a,b\n123,5678\n", limits(8, 9, 8), nullptr},
      {"a,b\n123,56789\n", limits(8, 9, 8), "[record_too_large] at byte 13 "},
      // The same with CRLF and lone CR terminators, which end a record at
      // the CR.
      {"a,b\r\n123,5678\r\n", limits(8, 9, 8), nullptr},
      {"a,b\r\n123,56789\r\n", limits(8, 9, 8),
       "[record_too_large] at byte 14 "},
      {"a,b\r123,5678\r", limits(8, 9, 8), nullptr},
      {"a,b\r123,56789\r", limits(8, 9, 8), "[record_too_large] at byte 13 "},
      // max_columns fields; one more fails where that field ends.
      {"a,b,c\n1,2,3\n", limits(8, 64, 3), nullptr},
      {"a,b,c\n1,2,3,4\n", limits(8, 64, 3), "[too_many_columns] at byte 13 "},
      {"a,b,c\n1,2,3,\n", limits(8, 64, 3), "[too_many_columns] at byte 12 "},
      {"a,b,c\n1,2,3,4,5", limits(8, 64, 3), "[too_many_columns] at byte 13 "},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    CsvOptions opts;
    opts.limits = c.limits;
    auto r = ReadCsvWithReport(c.text, opts);
    if (c.error == nullptr) {
      EXPECT_TRUE(r.ok()) << r.status().message();
      continue;
    }
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find(c.error), std::string::npos)
        << r.status().message();
  }
}

TEST(CsvLinePathTest, CrTerminatedInputReadsInLinearTime) {
  // Lone CR ends a record. Each record's search for its line end must stop
  // at that CR: one that ran on to the next LF (here, none) would cost the
  // rest of the input per record, hundreds of GB of scanning on this text.
  std::string lf_text = "a,b,c\n";
  for (int r = 0; r < 200000; ++r) {
    lf_text += std::to_string(r) + ",abcdefgh," + std::to_string(r % 97) +
               ".25\n";
  }
  std::string cr_text = lf_text;
  std::replace(cr_text.begin(), cr_text.end(), '\n', '\r');
  auto seconds = [](const std::string& text) {
    const auto start = std::chrono::steady_clock::now();
    auto r = ReadCsvWithReport(text);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r->relation.num_rows(), 200000u);
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const double lf = seconds(lf_text);
  const double cr = seconds(cr_text);
  EXPECT_LT(cr, 10 * lf + 1.0) << "LF " << lf << " s, CR " << cr << " s";
}

TEST(CsvFileTest, MissingFileIsNotFound) {
  auto r = ReadCsvFile("/nonexistent/path/file.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CsvFileTest, DirectoryIsATypedIoErrorNamingThePath) {
  const std::string dir = ::testing::TempDir() + "/ocdd_csv_dir.csv";
  std::filesystem::create_directories(dir);
  auto r = ReadCsvFile(dir);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal) << r.status().ToString();
  EXPECT_NE(r.status().message().find("io read failed for " + dir),
            std::string::npos)
      << r.status().message();
  std::filesystem::remove(dir);
}

TEST(CsvFileTest, ReadFaultIsATypedIoError) {
  auto written = ReadCsvString("a,b\n1,x\n");
  ASSERT_TRUE(written.ok());
  const std::string path = ::testing::TempDir() + "/ocdd_csv_read_fault.csv";
  ASSERT_TRUE(WriteCsvFile(*written, path).ok());
  IoEnv& env = IoEnv::Get();
  env.ClearFaults();
  ASSERT_TRUE(env.ArmFaultString("csv_read.read=eio").ok());
  auto r = ReadCsvFile(path);
  env.ClearFaults();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal) << r.status().ToString();
  EXPECT_NE(r.status().message().find("io read failed for " + path),
            std::string::npos)
      << r.status().message();
  EXPECT_TRUE(ReadCsvFile(path).ok());  // the fault was the only problem
}

TEST(CsvFileTest, WriteAndReadBack) {
  auto r = ReadCsvString("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(r.ok());
  std::string path = ::testing::TempDir() + "/ocdd_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(*r, path).ok());
  auto r2 = ReadCsvFile(path);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), 2u);
  EXPECT_EQ(r2->ValueAt(1, 1), Value::String("y"));
}

}  // namespace
}  // namespace ocdd::rel
