// Declaration-language tests: lexer, parser (Listing 1 verbatim),
// semantic validation, purpose declarations, and the binary codec.
#include <gtest/gtest.h>

#include <set>

#include "dsl/codec.hpp"
#include "dsl/lint.hpp"
#include "dsl/lexer.hpp"
#include "dsl/parser.hpp"

namespace rgpdos::dsl {
namespace {

// ---- Lexer ------------------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("type user { age: 1Y; }");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 10u);  // type user { age : 1 Y ; } EOF
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[0].text, "type");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kLBrace);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kNumber);
  EXPECT_EQ((*tokens)[5].text, "1");
  EXPECT_EQ((*tokens)[6].text, "Y");
  EXPECT_EQ(tokens->back().kind, TokenKind::kEof);
}

TEST(LexerTest, PathishIdentifiers) {
  auto tokens = Tokenize("web_form: user_form.html");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].text, "user_form.html");
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Tokenize(
      "// line comment\ntype /* block\ncomment */ user");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);
  EXPECT_EQ((*tokens)[0].text, "type");
  EXPECT_EQ((*tokens)[1].text, "user");
}

TEST(LexerTest, StringsWithEscapes) {
  auto tokens = Tokenize(R"("he said \"hi\"\n")");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[0].text, "he said \"hi\"\n");
}

TEST(LexerTest, ErrorsCarryLineAndColumn) {
  auto tokens = Tokenize("type user {\n  @bad\n}");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("2:3"), std::string::npos);
}

TEST(LexerTest, UnterminatedStringAndComment) {
  EXPECT_FALSE(Tokenize("\"never closed").ok());
  EXPECT_FALSE(Tokenize("/* never closed").ok());
}

// ---- Parser: Listing 1 ---------------------------------------------------------------

constexpr std::string_view kListing1 = R"(
type user {
  fields {
    name: string,
    pwd: string,
    year_of_birthdate: int
  };
  view v_name {
    name
  };
  view v_ano {
    year_of_birthdate
  };
  consent {
    purpose1: all,
    purpose2: none,
    purpose3: v_ano
  };
  collection {
    web_form: user_form.html,
    third_party: fetch_data.py
  };
  origin: subject;
  age: 1Y;
  sensitivity: hight;
}
)";

TEST(ParserTest, Listing1ParsesVerbatim) {
  auto decl = ParseType(kListing1);
  ASSERT_TRUE(decl.ok()) << decl.status().ToString();
  EXPECT_EQ(decl->name, "user");
  ASSERT_EQ(decl->fields.size(), 3u);
  EXPECT_EQ(decl->fields[0].name, "name");
  EXPECT_EQ(decl->fields[0].type, db::ValueType::kString);
  EXPECT_EQ(decl->fields[2].name, "year_of_birthdate");
  EXPECT_EQ(decl->fields[2].type, db::ValueType::kInt);

  ASSERT_EQ(decl->views.size(), 2u);
  EXPECT_EQ(decl->views[0].name, "v_name");
  EXPECT_EQ(decl->views[0].fields, std::vector<std::string>{"name"});
  EXPECT_EQ(decl->views[1].fields,
            std::vector<std::string>{"year_of_birthdate"});

  ASSERT_EQ(decl->default_consents.size(), 3u);
  EXPECT_EQ(decl->default_consents.at("purpose1").kind,
            membrane::ConsentKind::kAll);
  EXPECT_EQ(decl->default_consents.at("purpose2").kind,
            membrane::ConsentKind::kNone);
  EXPECT_EQ(decl->default_consents.at("purpose3").kind,
            membrane::ConsentKind::kView);
  EXPECT_EQ(decl->default_consents.at("purpose3").view, "v_ano");

  ASSERT_EQ(decl->collection.size(), 2u);
  EXPECT_EQ(decl->collection[0].method, "web_form");
  EXPECT_EQ(decl->collection[0].target, "user_form.html");
  EXPECT_EQ(decl->collection[1].target, "fetch_data.py");

  EXPECT_EQ(decl->origin, membrane::Origin::kSubject);
  EXPECT_EQ(decl->ttl, kMicrosPerYear);
  // "hight" — the paper's spelling — maps to high.
  EXPECT_EQ(decl->sensitivity, membrane::Sensitivity::kHigh);
}

TEST(ParserTest, DurationUnits) {
  const struct {
    const char* clause;
    TimeMicros expected;
  } cases[] = {
      {"age: 90s;", 90 * kMicrosPerSecond},
      {"age: 5m;", 300 * kMicrosPerSecond},
      {"age: 2h;", 7200 * kMicrosPerSecond},
      {"age: 30D;", 30 * kMicrosPerDay},
      {"age: 6M;", 180 * kMicrosPerDay},
      {"age: 2Y;", 2 * kMicrosPerYear},
  };
  for (const auto& c : cases) {
    const std::string source = "type t { fields { x: int }; " +
                               std::string(c.clause) + " }";
    auto decl = ParseType(source);
    ASSERT_TRUE(decl.ok()) << c.clause << ": " << decl.status().ToString();
    EXPECT_EQ(decl->ttl, c.expected) << c.clause;
  }
  EXPECT_FALSE(ParseType("type t { fields { x: int }; age: 3w; }").ok());
}

TEST(ParserTest, NullableFields) {
  auto decl =
      ParseType("type t { fields { a: string nullable, b: int } }");
  ASSERT_TRUE(decl.ok());
  EXPECT_TRUE(decl->fields[0].nullable);
  EXPECT_FALSE(decl->fields[1].nullable);
}

TEST(ParserTest, ValidationRejectsBadDeclarations) {
  // View references an unknown field.
  EXPECT_FALSE(
      ParseType("type t { fields { a: int }; view v { missing }; }").ok());
  // Duplicate field.
  EXPECT_FALSE(ParseType("type t { fields { a: int, a: int } }").ok());
  // Duplicate view.
  EXPECT_FALSE(
      ParseType("type t { fields { a: int }; view v { a }; view v { a }; }")
          .ok());
  // Consent references an unknown view.
  EXPECT_FALSE(
      ParseType("type t { fields { a: int }; consent { p: nosuch }; }")
          .ok());
  // Reserved view names.
  EXPECT_FALSE(
      ParseType("type t { fields { a: int }; view all { a }; }").ok());
  // Empty fields block.
  EXPECT_FALSE(ParseType("type t { fields { } }").ok());
  // Unknown field type.
  EXPECT_FALSE(ParseType("type t { fields { a: blob } }").ok());
  // Unknown clause.
  EXPECT_FALSE(ParseType("type t { fields { a: int }; banana: 1; }").ok());
}

TEST(ParserTest, ErrorsMentionLocation) {
  auto decl = ParseType("type t {\n  fields { a: int };\n  origin: mars;\n}");
  ASSERT_FALSE(decl.ok());
  EXPECT_NE(decl.status().message().find("mars"), std::string::npos);
}


TEST(ParserTest, FieldConstraints) {
  auto decl = ParseType(R"(
type person {
  fields {
    name: string max_len 64 not_empty,
    year: int min 1900 max 2100,
    bio: string nullable max_len 1000
  };
}
)");
  ASSERT_TRUE(decl.ok()) << decl.status().ToString();
  const auto& f = decl->fields;
  EXPECT_EQ(*f[0].constraints.max_len, 64u);
  EXPECT_TRUE(f[0].constraints.not_empty);
  EXPECT_EQ(*f[1].constraints.min_value, 1900);
  EXPECT_EQ(*f[1].constraints.max_value, 2100);
  EXPECT_TRUE(f[2].nullable);
  EXPECT_EQ(*f[2].constraints.max_len, 1000u);
  EXPECT_FALSE(f[2].constraints.not_empty);

  // Constraints are enforced by the schema.
  const db::Schema schema = decl->ToSchema();
  db::Row good{db::Value(std::string("alice")),
               db::Value(std::int64_t{1990}), db::Value()};
  EXPECT_TRUE(schema.ValidateRow(good).ok());
  db::Row too_old{db::Value(std::string("a")),
                  db::Value(std::int64_t{1800}), db::Value()};
  EXPECT_FALSE(schema.ValidateRow(too_old).ok());
  db::Row empty_name{db::Value(std::string("")),
                     db::Value(std::int64_t{1990}), db::Value()};
  EXPECT_FALSE(schema.ValidateRow(empty_name).ok());
  db::Row long_name{db::Value(std::string(100, 'x')),
                    db::Value(std::int64_t{1990}), db::Value()};
  EXPECT_FALSE(schema.ValidateRow(long_name).ok());
}

TEST(ParserTest, ConstraintsSyntaxErrors) {
  EXPECT_FALSE(ParseType("type t { fields { a: int min } }").ok());
  EXPECT_FALSE(ParseType("type t { fields { a: int min abc } }").ok());
}

TEST(CodecTest, ConstraintsSurviveRoundTrip) {
  auto decl = ParseType(
      "type t { fields { a: int min 1 max 9, b: string max_len 3 "
      "not_empty } }");
  ASSERT_TRUE(decl.ok());
  auto decoded = DecodeTypeDecl(EncodeTypeDecl(*decl));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded->fields[0].constraints.min_value, 1);
  EXPECT_EQ(*decoded->fields[0].constraints.max_value, 9);
  EXPECT_EQ(*decoded->fields[1].constraints.max_len, 3u);
  EXPECT_TRUE(decoded->fields[1].constraints.not_empty);
}


// ---- Privacy-by-design linter ---------------------------------------------------------

TEST(LintTest, CleanDeclarationHasNoWarnings) {
  auto decl = ParseType(R"(
type user {
  fields { name: string max_len 64, year: int min 1900 max 2100 };
  view v_year { year };
  consent { analytics: v_year };
  collection { web_form: f.html };
  origin: subject;
  age: 1Y;
  sensitivity: high;
}
)");
  ASSERT_TRUE(decl.ok());
  EXPECT_TRUE(LintType(*decl).empty());
}

TEST(LintTest, FlagsPrivacyHostilePatterns) {
  auto decl = ParseType(R"(
type hoard {
  fields { full_name: string, email: string, notes: string };
  consent { p1: all, p2: all, p3: all, p4: all, p5: all,
            p6: all, p7: all, p8: all, p9: all };
  origin: subject;
  sensitivity: high;
}
)");
  ASSERT_TRUE(decl.ok());
  const auto warnings = LintType(*decl);
  std::set<LintRule> rules;
  for (const LintWarning& w : warnings) rules.insert(w.rule);
  EXPECT_TRUE(rules.count(LintRule::kNoViews));
  EXPECT_TRUE(rules.count(LintRule::kNoTtl));
  EXPECT_TRUE(rules.count(LintRule::kUnboundedIdentifier));
  EXPECT_TRUE(rules.count(LintRule::kNoCollection));
  EXPECT_TRUE(rules.count(LintRule::kManyPurposes));
  // kBroadConsent needs views to exist; it must NOT fire here.
  EXPECT_FALSE(rules.count(LintRule::kBroadConsent));
}

TEST(LintTest, BroadConsentRequiresViewsToExist) {
  auto decl = ParseType(R"(
type t {
  fields { a: string max_len 4, b: int };
  view v { b };
  consent { wide: all, narrow: v };
  collection { web_form: f.html };
  origin: subject;
  sensitivity: low;
}
)");
  ASSERT_TRUE(decl.ok());
  const auto warnings = LintType(*decl);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].rule, LintRule::kBroadConsent);
  EXPECT_NE(warnings[0].detail.find("wide"), std::string::npos);
  EXPECT_EQ(LintRuleName(warnings[0].rule), "broad-consent");
}

// ---- Purpose declarations ----------------------------------------------------------------

TEST(ParserTest, PurposeDeclaration) {
  auto purpose = ParsePurpose(R"(
purpose purpose3 {
  input: user.v_ano;
  output: age;
  description: "compute the age of a user";
}
)");
  ASSERT_TRUE(purpose.ok()) << purpose.status().ToString();
  EXPECT_EQ(purpose->name, "purpose3");
  EXPECT_EQ(purpose->input_type, "user");
  EXPECT_EQ(purpose->input_view, "v_ano");
  EXPECT_EQ(purpose->output_type, "age");
  EXPECT_EQ(purpose->description, "compute the age of a user");
}

TEST(ParserTest, PurposeWithoutViewOrOutput) {
  auto purpose = ParsePurpose("purpose p { input: user; }");
  ASSERT_TRUE(purpose.ok());
  EXPECT_EQ(purpose->input_type, "user");
  EXPECT_TRUE(purpose->input_view.empty());
  EXPECT_TRUE(purpose->output_type.empty());
}

TEST(ParserTest, PurposeRequiresInput) {
  EXPECT_FALSE(ParsePurpose("purpose p { description: \"no input\"; }").ok());
}

TEST(ParserTest, PurposeAutomatedClause) {
  auto automated =
      ParsePurpose("purpose p { input: user; automated: true; }");
  ASSERT_TRUE(automated.ok()) << automated.status().ToString();
  EXPECT_TRUE(automated->automated);
  auto manual = ParsePurpose("purpose p { input: user; automated: false; }");
  ASSERT_TRUE(manual.ok());
  EXPECT_FALSE(manual->automated);
  // Unspecified defaults to manual — Art. 22 only bites on opt-in decls.
  auto unspecified = ParsePurpose("purpose p { input: user; }");
  ASSERT_TRUE(unspecified.ok());
  EXPECT_FALSE(unspecified->automated);
  EXPECT_FALSE(
      ParsePurpose("purpose p { input: user; automated: maybe; }").ok());
}

TEST(ParserTest, MixedProgram) {
  auto program = Parse(
      "type a { fields { x: int } }\n"
      "purpose p { input: a; }\n"
      "type b { fields { y: string } }\n");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->types.size(), 2u);
  EXPECT_EQ(program->purposes.size(), 1u);
}

// ---- AST helpers ---------------------------------------------------------------------------

TEST(TypeDeclTest, ViewFieldsResolution) {
  auto decl = ParseType(kListing1);
  ASSERT_TRUE(decl.ok());
  auto all = decl->ViewFields("all");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
  auto ano = decl->ViewFields("v_ano");
  ASSERT_TRUE(ano.ok());
  EXPECT_EQ(*ano, std::set<std::string>{"year_of_birthdate"});
  EXPECT_FALSE(decl->ViewFields("nope").ok());
  EXPECT_TRUE(decl->HasView("v_name"));
  EXPECT_FALSE(decl->HasView("v_nope"));
}

TEST(TypeDeclTest, DefaultMembraneMatchesDeclaration) {
  auto decl = ParseType(kListing1);
  ASSERT_TRUE(decl.ok());
  const membrane::Membrane m = decl->DefaultMembrane(42, 1'000'000);
  EXPECT_EQ(m.subject_id, 42u);
  EXPECT_EQ(m.type_name, "user");
  EXPECT_EQ(m.created_at, 1'000'000);
  EXPECT_EQ(m.ttl, kMicrosPerYear);
  EXPECT_EQ(m.sensitivity, membrane::Sensitivity::kHigh);
  EXPECT_EQ(m.consents.at("purpose1").kind, membrane::ConsentKind::kAll);
  EXPECT_EQ(m.consents.at("purpose3").view, "v_ano");
  EXPECT_EQ(m.collection.size(), 2u);
}

TEST(TypeDeclTest, ToSchema) {
  auto decl = ParseType(kListing1);
  ASSERT_TRUE(decl.ok());
  const db::Schema schema = decl->ToSchema();
  EXPECT_EQ(schema.name(), "user");
  EXPECT_EQ(schema.field_count(), 3u);
  EXPECT_TRUE(schema.HasField("pwd"));
}

// ---- Codec ------------------------------------------------------------------------------------

TEST(CodecTest, TypeDeclRoundTrip) {
  auto decl = ParseType(kListing1);
  ASSERT_TRUE(decl.ok());
  auto decoded = DecodeTypeDecl(EncodeTypeDecl(*decl));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->name, decl->name);
  EXPECT_EQ(decoded->fields.size(), decl->fields.size());
  EXPECT_EQ(decoded->views.size(), decl->views.size());
  EXPECT_EQ(decoded->default_consents.size(),
            decl->default_consents.size());
  EXPECT_EQ(decoded->collection.size(), decl->collection.size());
  EXPECT_EQ(decoded->origin, decl->origin);
  EXPECT_EQ(decoded->ttl, decl->ttl);
  EXPECT_EQ(decoded->sensitivity, decl->sensitivity);
  EXPECT_TRUE(decoded->Validate().ok());
}

TEST(CodecTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeTypeDecl(ToBytes("nonsense")).ok());
}

}  // namespace
}  // namespace rgpdos::dsl
