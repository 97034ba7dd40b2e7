#include "dsl/codec.hpp"

namespace rgpdos::dsl {

Bytes EncodeTypeDecl(const TypeDecl& decl) {
  ByteWriter w;
  w.PutString(decl.name);
  w.PutVarint(decl.fields.size());
  for (const db::FieldDef& f : decl.fields) {
    w.PutString(f.name);
    w.PutU8(static_cast<std::uint8_t>(f.type));
    w.PutBool(f.nullable);
    std::uint8_t mask = 0;
    if (f.constraints.min_value) mask |= 1;
    if (f.constraints.max_value) mask |= 2;
    if (f.constraints.max_len) mask |= 4;
    if (f.constraints.not_empty) mask |= 8;
    w.PutU8(mask);
    if (f.constraints.min_value) w.PutI64(*f.constraints.min_value);
    if (f.constraints.max_value) w.PutI64(*f.constraints.max_value);
    if (f.constraints.max_len) w.PutU64(*f.constraints.max_len);
  }
  w.PutVarint(decl.views.size());
  for (const ViewDecl& v : decl.views) {
    w.PutString(v.name);
    w.PutVarint(v.fields.size());
    for (const std::string& f : v.fields) w.PutString(f);
  }
  w.PutVarint(decl.default_consents.size());
  for (const auto& [purpose, spec] : decl.default_consents) {
    w.PutString(purpose);
    w.PutU8(static_cast<std::uint8_t>(spec.kind));
    w.PutString(spec.view);
  }
  w.PutVarint(decl.collection.size());
  for (const membrane::CollectionInterface& c : decl.collection) {
    w.PutString(c.method);
    w.PutString(c.target);
  }
  w.PutU8(static_cast<std::uint8_t>(decl.origin));
  w.PutI64(decl.ttl);
  w.PutU8(static_cast<std::uint8_t>(decl.sensitivity));
  return w.Take();
}

Result<TypeDecl> DecodeTypeDecl(ByteSpan bytes) {
  ByteReader r(bytes);
  TypeDecl decl;
  RGPD_ASSIGN_OR_RETURN(decl.name, r.GetString());
  RGPD_ASSIGN_OR_RETURN(std::uint64_t field_count, r.GetVarint());
  for (std::uint64_t i = 0; i < field_count; ++i) {
    db::FieldDef f;
    RGPD_ASSIGN_OR_RETURN(f.name, r.GetString());
    RGPD_ASSIGN_OR_RETURN(std::uint8_t type, r.GetU8());
    f.type = static_cast<db::ValueType>(type);
    RGPD_ASSIGN_OR_RETURN(f.nullable, r.GetBool());
    RGPD_ASSIGN_OR_RETURN(std::uint8_t mask, r.GetU8());
    if (mask & 1) {
      RGPD_ASSIGN_OR_RETURN(std::int64_t v, r.GetI64());
      f.constraints.min_value = v;
    }
    if (mask & 2) {
      RGPD_ASSIGN_OR_RETURN(std::int64_t v, r.GetI64());
      f.constraints.max_value = v;
    }
    if (mask & 4) {
      RGPD_ASSIGN_OR_RETURN(std::uint64_t v, r.GetU64());
      f.constraints.max_len = v;
    }
    f.constraints.not_empty = (mask & 8) != 0;
    decl.fields.push_back(std::move(f));
  }
  RGPD_ASSIGN_OR_RETURN(std::uint64_t view_count, r.GetVarint());
  for (std::uint64_t i = 0; i < view_count; ++i) {
    ViewDecl v;
    RGPD_ASSIGN_OR_RETURN(v.name, r.GetString());
    RGPD_ASSIGN_OR_RETURN(std::uint64_t vf, r.GetVarint());
    for (std::uint64_t j = 0; j < vf; ++j) {
      RGPD_ASSIGN_OR_RETURN(std::string f, r.GetString());
      v.fields.push_back(std::move(f));
    }
    decl.views.push_back(std::move(v));
  }
  RGPD_ASSIGN_OR_RETURN(std::uint64_t consent_count, r.GetVarint());
  for (std::uint64_t i = 0; i < consent_count; ++i) {
    RGPD_ASSIGN_OR_RETURN(std::string purpose, r.GetString());
    ConsentSpec spec;
    RGPD_ASSIGN_OR_RETURN(std::uint8_t kind, r.GetU8());
    if (kind > static_cast<std::uint8_t>(membrane::ConsentKind::kAll)) {
      return Corruption("type decl: bad consent kind");
    }
    spec.kind = static_cast<membrane::ConsentKind>(kind);
    RGPD_ASSIGN_OR_RETURN(spec.view, r.GetString());
    decl.default_consents.emplace(std::move(purpose), std::move(spec));
  }
  RGPD_ASSIGN_OR_RETURN(std::uint64_t collection_count, r.GetVarint());
  for (std::uint64_t i = 0; i < collection_count; ++i) {
    membrane::CollectionInterface c;
    RGPD_ASSIGN_OR_RETURN(c.method, r.GetString());
    RGPD_ASSIGN_OR_RETURN(c.target, r.GetString());
    decl.collection.push_back(std::move(c));
  }
  RGPD_ASSIGN_OR_RETURN(std::uint8_t origin, r.GetU8());
  if (origin > static_cast<std::uint8_t>(membrane::Origin::kDerived)) {
    return Corruption("type decl: bad origin");
  }
  decl.origin = static_cast<membrane::Origin>(origin);
  RGPD_ASSIGN_OR_RETURN(decl.ttl, r.GetI64());
  RGPD_ASSIGN_OR_RETURN(std::uint8_t sensitivity, r.GetU8());
  if (sensitivity > static_cast<std::uint8_t>(membrane::Sensitivity::kHigh)) {
    return Corruption("type decl: bad sensitivity");
  }
  decl.sensitivity = static_cast<membrane::Sensitivity>(sensitivity);
  return decl;
}

}  // namespace rgpdos::dsl
