// Membrane tests: consent evaluation, TTL expiry, serialization, and the
// version discipline that backs copy-consistency.
#include <gtest/gtest.h>

#include "membrane/membrane.hpp"

namespace rgpdos::membrane {
namespace {

Membrane MakeMembrane() {
  Membrane m;
  m.subject_id = 42;
  m.type_name = "user";
  m.origin = Origin::kSubject;
  m.sensitivity = Sensitivity::kHigh;
  m.created_at = 1000;
  m.ttl = 500;
  m.consents["purpose1"] = Consent::All();
  m.consents["purpose2"] = Consent::None();
  m.consents["purpose3"] = Consent::ForView("v_ano");
  m.collection.push_back({"web_form", "user_form.html"});
  m.copy_group = 7;
  return m;
}

TEST(MembraneTest, EvaluateGrantsAll) {
  const Membrane m = MakeMembrane();
  auto consent = m.Evaluate("purpose1", 1200);
  ASSERT_TRUE(consent.ok());
  EXPECT_EQ(consent->kind, ConsentKind::kAll);
}

TEST(MembraneTest, EvaluateGrantsView) {
  const Membrane m = MakeMembrane();
  auto consent = m.Evaluate("purpose3", 1200);
  ASSERT_TRUE(consent.ok());
  EXPECT_EQ(consent->kind, ConsentKind::kView);
  EXPECT_EQ(consent->view, "v_ano");
}

TEST(MembraneTest, EvaluateDeniesExplicitNone) {
  const Membrane m = MakeMembrane();
  auto consent = m.Evaluate("purpose2", 1200);
  EXPECT_EQ(consent.status().code(), StatusCode::kConsentDenied);
}

TEST(MembraneTest, UnknownPurposeIsDeniedByDefault) {
  const Membrane m = MakeMembrane();
  EXPECT_EQ(m.Evaluate("marketing", 1200).status().code(),
            StatusCode::kConsentDenied);
}

TEST(MembraneTest, TtlExpiryBeatsConsent) {
  const Membrane m = MakeMembrane();  // expires at 1500
  EXPECT_FALSE(m.ExpiredAt(1499));
  EXPECT_TRUE(m.ExpiredAt(1500));
  EXPECT_EQ(m.Evaluate("purpose1", 1500).status().code(),
            StatusCode::kExpired);
}

TEST(MembraneTest, ZeroTtlNeverExpires) {
  Membrane m = MakeMembrane();
  m.ttl = 0;
  EXPECT_FALSE(m.ExpiredAt(std::numeric_limits<TimeMicros>::max() / 2));
  EXPECT_FALSE(m.ExpiredAt(std::numeric_limits<TimeMicros>::max()));
}

TEST(MembraneTest, ExpiryBoundaryIsExact) {
  Membrane m = MakeMembrane();  // created_at 1000, ttl 500
  EXPECT_FALSE(m.ExpiredAt(1000));
  EXPECT_FALSE(m.ExpiredAt(1499));
  EXPECT_TRUE(m.ExpiredAt(1500));  // now == created_at + ttl is expired
  EXPECT_TRUE(m.ExpiredAt(1501));
}

TEST(MembraneTest, HugeTtlDoesNotOverflow) {
  // created_at + ttl would wrap past INT64_MAX; a membrane with an
  // effectively-infinite TTL must read as fresh, not expired-at-birth.
  Membrane m = MakeMembrane();
  m.created_at = 1000;
  m.ttl = std::numeric_limits<TimeMicros>::max() - 10;
  EXPECT_FALSE(m.ExpiredAt(m.created_at));
  EXPECT_FALSE(m.ExpiredAt(std::numeric_limits<TimeMicros>::max() / 2));
  ASSERT_TRUE(m.Evaluate("purpose1", 2000).ok());
}

TEST(MembraneTest, SetTtlShortenAndLengthenMidLife) {
  Membrane m = MakeMembrane();  // created_at 1000, ttl 500
  m.SetTtl(100);                // shorten: already past the new deadline
  EXPECT_TRUE(m.ExpiredAt(1200));
  EXPECT_EQ(m.Evaluate("purpose1", 1200).status().code(),
            StatusCode::kExpired);
  m.SetTtl(1000);  // lengthen: the same instant is in-life again
  EXPECT_FALSE(m.ExpiredAt(1200));
  EXPECT_TRUE(m.Evaluate("purpose1", 1200).ok());
  EXPECT_TRUE(m.ExpiredAt(2000));
}

TEST(MembraneTest, EqualityComparesCollectionContents) {
  const Membrane a = MakeMembrane();
  Membrane b = MakeMembrane();
  EXPECT_EQ(a, b);
  // Same number of collection interfaces, different contents — these
  // membranes are NOT interchangeable (the DED shows the collection
  // provenance to the subject).
  b.collection[0].target = "other_form.html";
  EXPECT_FALSE(a == b);
  b = MakeMembrane();
  b.collection[0].method = "third_party";
  EXPECT_FALSE(a == b);
}

TEST(MembraneTest, MutationsBumpVersion) {
  Membrane m = MakeMembrane();
  const std::uint64_t v0 = m.version;
  m.GrantConsent("purpose2", Consent::All());
  EXPECT_EQ(m.version, v0 + 1);
  m.RevokeConsent("purpose1");
  EXPECT_EQ(m.version, v0 + 2);
  m.SetTtl(9999);
  EXPECT_EQ(m.version, v0 + 3);
  EXPECT_EQ(m.consents.at("purpose1").kind, ConsentKind::kNone);
  EXPECT_EQ(m.consents.at("purpose2").kind, ConsentKind::kAll);
}

TEST(MembraneTest, RevokeUnknownPurposeStillRecordsDenial) {
  Membrane m = MakeMembrane();
  m.RevokeConsent("never_granted");
  EXPECT_EQ(m.consents.at("never_granted").kind, ConsentKind::kNone);
}

// ---- Art. 21 objection / Art. 22 automated-decision opt-out ---------------

TEST(MembraneTest, ObjectionBeatsStandingConsent) {
  Membrane m = MakeMembrane();
  ASSERT_TRUE(m.Evaluate("purpose1", 1200).ok());
  m.Object("purpose1");
  EXPECT_TRUE(m.ObjectedTo("purpose1"));
  EXPECT_EQ(m.Evaluate("purpose1", 1200).status().code(),
            StatusCode::kObjected);
  // The objection is its own axis: consent is still recorded as granted,
  // and other purposes are untouched.
  EXPECT_EQ(m.consents.at("purpose1").kind, ConsentKind::kAll);
  EXPECT_TRUE(m.Evaluate("purpose3", 1200).ok());
}

TEST(MembraneTest, ObjectionSurvivesConsentRegrant) {
  // Art. 21 is sticky: a later (perhaps dark-pattern) consent re-grant
  // must NOT clear the objection — only an explicit withdrawal does.
  Membrane m = MakeMembrane();
  m.Object("purpose1");
  m.GrantConsent("purpose1", Consent::All());
  EXPECT_EQ(m.Evaluate("purpose1", 1200).status().code(),
            StatusCode::kObjected);
  m.WithdrawObjection("purpose1");
  EXPECT_TRUE(m.Evaluate("purpose1", 1200).ok());
}

TEST(MembraneTest, AutomatedDecisionOptOut) {
  Membrane m = MakeMembrane();
  m.SetNoAutomatedDecision(true);
  // Only automated evaluations are blocked; the same purpose evaluated
  // for a human-in-the-loop processing still passes.
  EXPECT_EQ(m.Evaluate("purpose1", 1200, /*automated_decision=*/true)
                .status()
                .code(),
            StatusCode::kObjected);
  EXPECT_TRUE(m.Evaluate("purpose1", 1200, false).ok());
  m.SetNoAutomatedDecision(false);
  EXPECT_TRUE(m.Evaluate("purpose1", 1200, true).ok());
}

TEST(MembraneTest, ObjectionMutationsBumpVersionLikeConsent) {
  // The version counter is what invalidates the record/decision caches;
  // an objection that does not bump it would be served stale forever.
  Membrane m = MakeMembrane();
  const std::uint64_t v0 = m.version;
  m.Object("purpose1");
  EXPECT_EQ(m.version, v0 + 1);
  m.WithdrawObjection("purpose1");
  EXPECT_EQ(m.version, v0 + 2);
  m.SetNoAutomatedDecision(true);
  EXPECT_EQ(m.version, v0 + 3);
}

TEST(MembraneTest, EqualityComparesObjectionState) {
  const Membrane a = MakeMembrane();
  Membrane b = MakeMembrane();
  b.Object("purpose1");
  EXPECT_FALSE(a == b);
  b = MakeMembrane();
  b.SetNoAutomatedDecision(true);
  EXPECT_FALSE(a == b);
}

TEST(MembraneTest, SerializationRoundTripWithObjections) {
  Membrane m = MakeMembrane();
  m.Object("purpose1");
  m.Object("marketing");
  m.SetNoAutomatedDecision(true);
  auto decoded = Membrane::Deserialize(m.Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, m);
  EXPECT_TRUE(decoded->ObjectedTo("purpose1"));
  EXPECT_TRUE(decoded->ObjectedTo("marketing"));
  EXPECT_TRUE(decoded->no_automated_decision);
}

TEST(MembraneTest, LegacyWireWithoutObjectionFieldsDecodes) {
  // A membrane cut off right after the version (the pre-objection wire)
  // must be rejected: reading it as "no objections, no opt-out" would
  // fail open on exactly the Art. 21/22 state that got lost.
  Bytes wire = MakeMembrane().Serialize();
  // Current tail = varint(0) objection count + 1 bool byte.
  wire.resize(wire.size() - 2);
  EXPECT_EQ(Membrane::Deserialize(wire).status().code(),
            StatusCode::kCorruption);
  // Losing only the opt-out byte is just as fatal.
  wire = MakeMembrane().Serialize();
  wire.pop_back();
  EXPECT_EQ(Membrane::Deserialize(wire).status().code(),
            StatusCode::kCorruption);
}

TEST(MembraneTest, SerializationRoundTrip) {
  const Membrane m = MakeMembrane();
  auto decoded = Membrane::Deserialize(m.Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, m);
  EXPECT_EQ(decoded->collection.size(), 1u);
  EXPECT_EQ(decoded->collection[0].method, "web_form");
  EXPECT_EQ(decoded->collection[0].target, "user_form.html");
}

TEST(MembraneTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Membrane::Deserialize(ToBytes("x")).ok());
  // Corrupt the origin byte past the enum range.
  Bytes wire = MakeMembrane().Serialize();
  // origin is right after subject_id (8B) + type_name (varint len + 4).
  wire[8 + 1 + 4] = 99;
  EXPECT_FALSE(Membrane::Deserialize(wire).ok());
}

TEST(MembraneTest, EnumNames) {
  EXPECT_EQ(OriginName(Origin::kSubject), "subject");
  EXPECT_EQ(OriginName(Origin::kDerived), "derived");
  EXPECT_EQ(SensitivityName(Sensitivity::kHigh), "high");
}

}  // namespace
}  // namespace rgpdos::membrane
