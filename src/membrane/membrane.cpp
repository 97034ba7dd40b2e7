#include "membrane/membrane.hpp"

namespace rgpdos::membrane {

std::string_view OriginName(Origin origin) {
  switch (origin) {
    case Origin::kSubject: return "subject";
    case Origin::kSysadmin: return "sysadmin";
    case Origin::kThirdParty: return "third_party";
    case Origin::kDerived: return "derived";
  }
  return "?";
}

std::string_view SensitivityName(Sensitivity s) {
  switch (s) {
    case Sensitivity::kLow: return "low";
    case Sensitivity::kMedium: return "medium";
    case Sensitivity::kHigh: return "high";
  }
  return "?";
}

Result<Consent> Membrane::Evaluate(std::string_view purpose,
                                   TimeMicros now,
                                   bool automated_decision) const {
  if (restricted) {
    return Restricted("processing of subject " +
                      std::to_string(subject_id) + "'s PD is restricted" +
                      (restriction_reason.empty()
                           ? std::string()
                           : " (" + restriction_reason + ")"));
  }
  if (ExpiredAt(now)) {
    return Expired("PD of subject " + std::to_string(subject_id) +
                   " exceeded its time to live");
  }
  if (ObjectedTo(purpose)) {
    return Objected("subject " + std::to_string(subject_id) +
                    " objected to purpose '" + std::string(purpose) +
                    "' (Art. 21)");
  }
  if (automated_decision && no_automated_decision) {
    return Objected("subject " + std::to_string(subject_id) +
                    " opted out of automated decisions (Art. 22); purpose '" +
                    std::string(purpose) + "' is declared automated");
  }
  const auto it = consents.find(std::string(purpose));
  if (it == consents.end() || it->second.kind == ConsentKind::kNone) {
    return ConsentDenied("purpose '" + std::string(purpose) +
                         "' not consented by subject " +
                         std::to_string(subject_id));
  }
  return it->second;
}

void Membrane::GrantConsent(const std::string& purpose, Consent consent) {
  consents[purpose] = std::move(consent);
  ++version;
}

void Membrane::RevokeConsent(const std::string& purpose) {
  consents[purpose] = Consent::None();
  ++version;
}

void Membrane::SetTtl(TimeMicros new_ttl) {
  ttl = new_ttl;
  ++version;
}

void Membrane::Restrict(std::string reason) {
  restricted = true;
  restriction_reason = std::move(reason);
  ++version;
}

void Membrane::LiftRestriction() {
  restricted = false;
  restriction_reason.clear();
  ++version;
}

void Membrane::Object(const std::string& purpose) {
  objections.insert(purpose);
  ++version;
}

void Membrane::WithdrawObjection(const std::string& purpose) {
  objections.erase(purpose);
  ++version;
}

void Membrane::SetNoAutomatedDecision(bool opt_out) {
  no_automated_decision = opt_out;
  ++version;
}

Bytes Membrane::Serialize() const {
  ByteWriter w;
  w.PutU64(subject_id);
  w.PutString(type_name);
  w.PutU8(static_cast<std::uint8_t>(origin));
  w.PutU8(static_cast<std::uint8_t>(sensitivity));
  w.PutI64(created_at);
  w.PutI64(ttl);
  w.PutVarint(consents.size());
  for (const auto& [purpose, consent] : consents) {
    w.PutString(purpose);
    w.PutU8(static_cast<std::uint8_t>(consent.kind));
    w.PutString(consent.view);
  }
  w.PutVarint(collection.size());
  for (const CollectionInterface& c : collection) {
    w.PutString(c.method);
    w.PutString(c.target);
  }
  w.PutU64(copy_group);
  w.PutBool(restricted);
  w.PutString(restriction_reason);
  w.PutU64(version);
  w.PutVarint(objections.size());
  for (const std::string& purpose : objections) w.PutString(purpose);
  w.PutBool(no_automated_decision);
  return w.Take();
}

Result<Membrane> Membrane::Deserialize(ByteSpan bytes) {
  ByteReader r(bytes);
  Membrane m;
  RGPD_ASSIGN_OR_RETURN(m.subject_id, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(m.type_name, r.GetString());
  RGPD_ASSIGN_OR_RETURN(std::uint8_t origin, r.GetU8());
  if (origin > static_cast<std::uint8_t>(Origin::kDerived)) {
    return Corruption("membrane has unknown origin");
  }
  m.origin = static_cast<Origin>(origin);
  RGPD_ASSIGN_OR_RETURN(std::uint8_t sensitivity, r.GetU8());
  if (sensitivity > static_cast<std::uint8_t>(Sensitivity::kHigh)) {
    return Corruption("membrane has unknown sensitivity");
  }
  m.sensitivity = static_cast<Sensitivity>(sensitivity);
  RGPD_ASSIGN_OR_RETURN(m.created_at, r.GetI64());
  RGPD_ASSIGN_OR_RETURN(m.ttl, r.GetI64());
  RGPD_ASSIGN_OR_RETURN(std::uint64_t consent_count, r.GetVarint());
  for (std::uint64_t i = 0; i < consent_count; ++i) {
    RGPD_ASSIGN_OR_RETURN(std::string purpose, r.GetString());
    Consent consent;
    RGPD_ASSIGN_OR_RETURN(std::uint8_t kind, r.GetU8());
    if (kind > static_cast<std::uint8_t>(ConsentKind::kAll)) {
      return Corruption("membrane consent has unknown kind");
    }
    consent.kind = static_cast<ConsentKind>(kind);
    RGPD_ASSIGN_OR_RETURN(consent.view, r.GetString());
    m.consents.emplace(std::move(purpose), std::move(consent));
  }
  RGPD_ASSIGN_OR_RETURN(std::uint64_t collection_count, r.GetVarint());
  for (std::uint64_t i = 0; i < collection_count; ++i) {
    CollectionInterface c;
    RGPD_ASSIGN_OR_RETURN(c.method, r.GetString());
    RGPD_ASSIGN_OR_RETURN(c.target, r.GetString());
    m.collection.push_back(std::move(c));
  }
  RGPD_ASSIGN_OR_RETURN(m.copy_group, r.GetU64());
  RGPD_ASSIGN_OR_RETURN(m.restricted, r.GetBool());
  RGPD_ASSIGN_OR_RETURN(m.restriction_reason, r.GetString());
  RGPD_ASSIGN_OR_RETURN(m.version, r.GetU64());
  // The Art. 21/22 tail is mandatory: a membrane cut off before it must
  // not decode as "no objections, no opt-out".
  RGPD_ASSIGN_OR_RETURN(std::uint64_t objection_count, r.GetVarint());
  for (std::uint64_t i = 0; i < objection_count; ++i) {
    RGPD_ASSIGN_OR_RETURN(std::string purpose, r.GetString());
    m.objections.insert(std::move(purpose));
  }
  RGPD_ASSIGN_OR_RETURN(m.no_automated_decision, r.GetBool());
  return m;
}

bool operator==(const Membrane& a, const Membrane& b) {
  return a.subject_id == b.subject_id && a.type_name == b.type_name &&
         a.origin == b.origin && a.sensitivity == b.sensitivity &&
         a.created_at == b.created_at && a.ttl == b.ttl &&
         a.consents == b.consents && a.copy_group == b.copy_group &&
         a.restricted == b.restricted &&
         a.restriction_reason == b.restriction_reason &&
         a.objections == b.objections &&
         a.no_automated_decision == b.no_automated_decision &&
         a.version == b.version && a.collection == b.collection;
}

}  // namespace rgpdos::membrane
