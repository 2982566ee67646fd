#ifndef LODVIZ_SPARQL_FINGERPRINT_H_
#define LODVIZ_SPARQL_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "sparql/ast.h"

namespace lodviz::sparql {

/// Stable 64-bit fingerprint of a parsed query, computed over a canonical
/// serialization of the AST. Two parses of the "same" query agree on the
/// fingerprint regardless of
///
///  - whitespace, comments, and PREFIX spelling (erased by the parser);
///  - variable names: variables are renumbered in first-appearance order
///    of a fixed AST traversal, so `?s ?p` and `?x ?y` used identically
///    fingerprint identically;
///  - literal spelling: decodable literals (numeric, temporal, boolean)
///    hash their decoded value, so `30`, `"30"^^xsd:integer` and
///    `"+30"^^xsd:integer` agree (FILTER comparison semantics are
///    value-based, so these denote the same query).
///
/// Structural differences — a different constant, operator, pattern list,
/// modifier, or query form — change the fingerprint (up to 64-bit hash
/// collisions). Triple-pattern order is part of the fingerprint. The
/// fingerprint groups queries for the slow-query journal and profiles; it
/// does not key plans (see CanonicalQueryKey).
///
/// The hash is a fixed FNV-1a/64 over a canonical serialization: it
/// depends only on the AST contents, never on pointers, process state, or
/// platform (doubles hash their IEEE-754 bits).
[[nodiscard]] uint64_t QueryFingerprint(const Query& query);

/// The canonical byte serialization of a query as a plan sees it — the
/// serving layer's plan-cache key. It erases what QueryFingerprint erases
/// except literal spelling: every literal enters by its exact lexical
/// form, language and datatype. A plan embeds each triple-pattern
/// constant as the dictionary id of exactly that spelling (`30` and
/// `"+30"^^xsd:integer` are different terms, matched by different
/// triples), so two queries may share a plan only if their constants are
/// spelled alike. Two queries have byte-identical keys iff they are the
/// same up to whitespace, prefixes and consistent variable renaming. The
/// plan cache hashes the key with Fnv1a64 and compares the bytes on every
/// hit, so a 64-bit collision degrades to a cache miss instead of
/// executing the wrong plan.
[[nodiscard]] std::string CanonicalQueryKey(const Query& query);

/// The fixed FNV-1a/64 the fingerprint uses; exposed so consumers hashing
/// a CanonicalQueryKey they already hold can avoid a second AST walk.
[[nodiscard]] uint64_t Fnv1a64(std::string_view bytes);

}  // namespace lodviz::sparql

#endif  // LODVIZ_SPARQL_FINGERPRINT_H_
