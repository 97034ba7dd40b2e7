// Binary persistence of type declarations — the content of the DBFS
// schema-tree inodes.
#pragma once

#include "common/bytes.hpp"
#include "dsl/ast.hpp"

namespace rgpdos::dsl {

[[nodiscard]] Bytes EncodeTypeDecl(const TypeDecl& decl);
Result<TypeDecl> DecodeTypeDecl(ByteSpan bytes);

}  // namespace rgpdos::dsl
