//! Pass 1 of the two-pass analysis: the workspace symbol table.
//!
//! One walk over every scanned file extracts the inventory the cross-file
//! rules reason about:
//!
//! - **atomic fields** — `name: AtomicXxx` declarations inside structs (or
//!   `static NAME: AtomicXxx`), keyed `Struct.field`;
//! - **atomic sites** — every `.load/.store/.swap/.compare_exchange/
//!   .fetch_*` call whose argument list names an `Ordering::` variant, with
//!   the receiver field resolved token-level (`self.state.load(..)` →
//!   `state`; a call-returning receiver stays unresolved and is treated
//!   conservatively);
//! - **kernel inventory** — the `KernelKind` enum's variants vs the set of
//!   variants actually passed to `KernelScope::enter`, and the body extent
//!   of every function that opens a kernel scope (for the hot-path
//!   allocation rule).
//!
//! The table also *classifies* atomic fields: a field whose every
//! non-test access is `Relaxed` and drawn from the pure-accumulator op set
//! (`load`, `fetch_add`, `fetch_sub`, `fetch_max`, `fetch_min`) publishes
//! nothing and can be proven benign without a per-site comment — the
//! `ordering-justified` rule exempts those sites, and stale justification
//! comments on them become findings.

use crate::lexer::is_ident_char;
use crate::source::{delim_extent, ident_at, skip_ws, words, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// The atomic methods that take `Ordering` arguments.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
];

/// Ops that never publish and never consume: a field touched only by these
/// (all `Relaxed`) is a pure accumulator.
const COUNTER_OPS: &[&str] = &["load", "fetch_add", "fetch_sub", "fetch_max", "fetch_min"];

/// Atomic integer/bool/ptr type names (suffix after `Atomic`).
const ATOMIC_TYS: &[&str] = &[
    "Bool", "U8", "U16", "U32", "U64", "Usize", "I8", "I16", "I32", "I64", "Isize", "Ptr",
];

/// The atomic memory orderings.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One `field: AtomicXxx` (or `static NAME: AtomicXxx`) declaration.
#[derive(Debug, Clone)]
pub struct AtomicField {
    /// Enclosing struct name, or `static` for file-level statics.
    pub owner: String,
    /// Field (or static) name.
    pub field: String,
    /// The atomic type name (e.g. `AtomicU64`).
    pub ty: String,
    /// Index of the declaring file.
    pub file: usize,
    /// 1-based declaration line.
    pub line: usize,
}

/// One atomic load/store/RMW call site carrying `Ordering` arguments.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Receiver field name when the receiver is a plain `path.field` chain;
    /// `None` for call-returning receivers (treated conservatively).
    pub field: Option<String>,
    /// Method name (`load`, `store`, `fetch_add`, ...).
    pub op: &'static str,
    /// Every `Ordering::` variant in the call's argument list.
    pub orderings: Vec<&'static str>,
    /// Positions of the `Ordering` tokens: `(1-based line, 0-based col)`.
    pub ordering_tokens: Vec<(usize, usize)>,
    /// Index of the file.
    pub file: usize,
    /// 1-based line of the method token.
    pub line: usize,
    /// 0-based column of the method token.
    pub column: usize,
}

/// A `KernelKind` enum variant declaration.
#[derive(Debug, Clone)]
pub struct KernelVariant {
    /// Variant name.
    pub name: String,
    /// Index of the file declaring the enum.
    pub file: usize,
    /// 1-based line of the variant.
    pub line: usize,
}

/// The body extent of a function that opens a `KernelScope`, with the
/// position where the scope starts (allocation checks apply after it).
#[derive(Debug, Clone)]
pub struct KernelFn {
    /// Index of the file.
    pub file: usize,
    /// 1-based line of the `KernelScope::enter` call.
    pub enter_line: usize,
    /// 1-based first line of the measured region (after the enter call).
    pub region_start: usize,
    /// 0-based column on `region_start` where the region begins (tokens
    /// before it on that line are the enter call's own arguments).
    pub region_start_col: usize,
    /// 1-based last line of the function body.
    pub region_end: usize,
}

/// The workspace symbol table — everything pass 2 reasons about. Entries
/// name their file by its index in the slice the table was built from.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Atomic field/static declarations.
    pub atomic_fields: Vec<AtomicField>,
    /// Every atomic op site with `Ordering` arguments (non-test code).
    pub atomic_sites: Vec<AtomicSite>,
    /// Field names proven to be pure `Relaxed` accumulators.
    pub relaxed_counters: BTreeSet<String>,
    /// `Ordering` token positions `(file, line, col)` on proven-counter
    /// sites: `ordering-justified` needs no comment there.
    pub exempt_ordering_tokens: BTreeSet<(usize, usize, usize)>,
    /// `KernelKind` variant declarations.
    pub kernel_variants: Vec<KernelVariant>,
    /// Variants actually passed to `KernelScope::enter(KernelKind::X, ..)`.
    pub entered_kinds: BTreeSet<String>,
    /// Functions that open a kernel scope (hot-path allocation domain).
    pub kernel_fns: Vec<KernelFn>,
}

impl SymbolTable {
    /// Builds the table over every scanned file.
    pub fn build(files: &[SourceFile]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (idx, file) in files.iter().enumerate() {
            collect_atomic_fields(file, idx, &mut table.atomic_fields);
            collect_atomic_sites(file, idx, &mut table.atomic_sites);
            collect_kernels(file, idx, &mut table);
        }
        let counters: BTreeSet<String> = table
            .sites_by_field()
            .into_iter()
            .filter(|(_, sites)| {
                sites.iter().all(|s| {
                    COUNTER_OPS.contains(&s.op) && s.orderings.iter().all(|o| *o == "Relaxed")
                })
            })
            .map(|(field, _)| field.to_string())
            .collect();
        for site in &table.atomic_sites {
            if site.field.as_ref().is_some_and(|f| counters.contains(f)) {
                for &(line, col) in &site.ordering_tokens {
                    table.exempt_ordering_tokens.insert((site.file, line, col));
                }
            }
        }
        table.relaxed_counters = counters;
        table
    }

    /// Sites grouped per resolved field name (declared fields only).
    pub fn sites_by_field(&self) -> BTreeMap<&str, Vec<&AtomicSite>> {
        let declared: BTreeSet<&str> = self
            .atomic_fields
            .iter()
            .map(|f| f.field.as_str())
            .collect();
        let mut map: BTreeMap<&str, Vec<&AtomicSite>> = BTreeMap::new();
        for site in &self.atomic_sites {
            if let Some(field) = site.field.as_deref().filter(|f| declared.contains(f)) {
                map.entry(field).or_default().push(site);
            }
        }
        map
    }

    /// Kernel variants never passed to `KernelScope::enter` anywhere.
    pub fn dead_kernel_variants(&self) -> Vec<&KernelVariant> {
        self.kernel_variants
            .iter()
            .filter(|v| !self.entered_kinds.contains(&v.name))
            .collect()
    }
}

/// `(offset, variant)` of every `Ordering::<variant>` token in `chars`.
pub(crate) fn ordering_tokens(chars: &[char]) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for at in words(chars, "Ordering") {
        let Some(c1) = skip_ws(chars, at + "Ordering".len()..) else {
            continue;
        };
        if !chars[c1..].starts_with(&[':', ':']) {
            continue;
        }
        let variant = skip_ws(chars, c1 + 2..).map(|v| ident_at(chars, v));
        if let Some(&v) = ORDERINGS.iter().find(|o| variant.as_deref() == Some(**o)) {
            out.push((at, v));
        }
    }
    out
}

/// Collects `name: AtomicXxx` declarations (struct fields and statics).
/// Initializer expressions (`AtomicU64::new(0)`) are excluded by requiring
/// the type name not be followed by `::`.
fn collect_atomic_fields(file: &SourceFile, idx: usize, out: &mut Vec<AtomicField>) {
    let code = &file.code;
    // Struct bodies, for owner attribution: the `{` comes before any `;`
    // (unit and tuple structs have none).
    let mut structs: Vec<(String, usize, usize)> = Vec::new();
    for site in words(code, "struct") {
        let Some(n0) = skip_ws(code, site + "struct".len()..) else {
            continue;
        };
        let name = ident_at(code, n0);
        let from = n0 + name.len();
        let body = code[from..].iter().position(|&c| c == '{' || c == ';');
        if let Some(open) = body.map(|p| from + p).filter(|&o| code[o] == '{') {
            if !name.is_empty() {
                structs.push((name, open, delim_extent(code, open)));
            }
        }
    }

    for ty_suffix in ATOMIC_TYS {
        let ty = format!("Atomic{ty_suffix}");
        for site in words(code, &ty) {
            // `AtomicU64::new(..)` is an expression, not a declaration.
            let after = site + ty.len();
            if file.is_test_line(file.line(site)) || code[after..].starts_with(&[':', ':']) {
                continue;
            }
            // Walk back over the type path (`std::sync::atomic::`), then
            // expect a single `:` preceded by the field name.
            let mut j = site;
            while let Some(p) =
                skip_ws(code, (0..j).rev()).filter(|&p| p > 0 && code[p - 1..=p] == [':', ':'])
            {
                match skip_ws(code, (0..p - 1).rev()).filter(|&e| is_ident_char(code[e])) {
                    Some(e) => j = ident_start(code, e),
                    None => break,
                }
            }
            let Some(colon) = skip_ws(code, (0..j).rev()).filter(|&c| code[c] == ':') else {
                continue;
            };
            if colon >= 1 && code[colon - 1] == ':' {
                continue;
            }
            let Some(name_end) =
                skip_ws(code, (0..colon).rev()).filter(|&e| is_ident_char(code[e]))
            else {
                continue;
            };
            let name_start = ident_start(code, name_end);
            let field = ident_at(code, name_start);
            if field.is_empty() || field == "mut" {
                continue;
            }
            // Owner: innermost struct whose body contains the site, else a
            // `static` keyword on the declaration's statement.
            let owner = structs
                .iter()
                .filter(|(_, open, close)| *open < site && site < *close)
                .max_by_key(|(_, open, _)| *open)
                .map(|(name, _, _)| name.clone());
            let owner = match owner {
                Some(o) => o,
                None => {
                    // Require `static` before the field name on the same
                    // statement, else this is a local/param annotation.
                    let before: String = code[name_start.saturating_sub(24)..name_start]
                        .iter()
                        .collect();
                    if !before.contains("static") {
                        continue;
                    }
                    "static".to_string()
                }
            };
            out.push(AtomicField {
                owner,
                field,
                ty: ty.clone(),
                file: idx,
                line: file.line(site),
            });
        }
    }
}

/// Start offset of the identifier ending at `end` (inclusive).
fn ident_start(chars: &[char], end: usize) -> usize {
    chars[..end]
        .iter()
        .rposition(|c| !is_ident_char(*c))
        .map_or(0, |p| p + 1)
}

/// Collects every atomic op call that names an `Ordering::` variant.
fn collect_atomic_sites(file: &SourceFile, idx: usize, out: &mut Vec<AtomicSite>) {
    let code = &file.code;
    for op in ATOMIC_OPS {
        for site in words(code, op) {
            // Must be a non-test `.op(` method call.
            let Some(dot) = skip_ws(code, (0..site).rev()).filter(|&d| code[d] == '.') else {
                continue;
            };
            let Some(open) = skip_ws(code, site + op.len()..).filter(|&o| code[o] == '(') else {
                continue;
            };
            if file.is_test_line(file.line(site)) {
                continue;
            }
            let close = delim_extent(code, open);
            let tokens = ordering_tokens(&code[open..close]);
            if tokens.is_empty() {
                continue;
            }
            // Receiver: the ident chain segment directly before the dot.
            let field = skip_ws(code, (0..dot).rev())
                .filter(|&e| is_ident_char(code[e]))
                .map(|e| ident_at(code, ident_start(code, e)))
                .filter(|name| name != "self");
            out.push(AtomicSite {
                field,
                op,
                orderings: tokens.iter().map(|&(_, v)| v).collect(),
                ordering_tokens: tokens
                    .iter()
                    .map(|&(at, _)| (file.line(open + at), file.col(open + at)))
                    .collect(),
                file: idx,
                line: file.line(site),
                column: file.col(site),
            });
        }
    }
}

/// Collects the `KernelKind` enum's variants, every variant passed to
/// `KernelScope::enter`, and the measured region of each entering
/// function.
fn collect_kernels(file: &SourceFile, idx: usize, table: &mut SymbolTable) {
    let code = &file.code;
    // Variant declarations: `enum KernelKind { .. }`.
    for site in words(code, "enum") {
        let Some(n0) = skip_ws(code, site + "enum".len()..) else {
            continue;
        };
        if ident_at(code, n0) != "KernelKind" {
            continue;
        }
        let Some(open) = code[n0..].iter().position(|&c| c == '{').map(|p| n0 + p) else {
            continue;
        };
        let close = delim_extent(code, open);
        // Variants: idents at depth 1 whose previous non-ws char is `{`,
        // `,` or `]` (closing an attribute).
        let mut j = open + 1;
        while j < close.saturating_sub(1) {
            let c = code[j];
            if c == '#' {
                // Skip `#[..]` attribute.
                if let Some(b) = skip_ws(code, j + 1..).filter(|&b| code[b] == '[') {
                    j = delim_extent(code, b);
                    continue;
                }
            }
            if is_ident_char(c) && (j == 0 || !is_ident_char(code[j - 1])) {
                let name = ident_at(code, j);
                let end = j + name.len();
                // A plain variant is followed by `,`, the closing brace, or an
                // explicit discriminant (`Variant = 3,`); data-carrying
                // variants would be followed by `(`/`{`. Numeric tokens are
                // discriminants, not variant names.
                let ok = skip_ws(code, end..).is_none_or(|n| {
                    code[n] == ','
                        || n + 1 >= close
                        || (code[n] == '=' && code.get(n + 1) != Some(&'='))
                });
                if ok && !name.starts_with(|c: char| c.is_ascii_digit()) {
                    table.kernel_variants.push(KernelVariant {
                        name,
                        file: idx,
                        line: file.line(j),
                    });
                }
                j = end;
                continue;
            }
            j += 1;
        }
    }

    // Enter sites + enclosing function extents.
    let mut fn_extents: Option<Vec<(usize, usize)>> = None;
    for site in words(code, "KernelScope") {
        let after = site + "KernelScope".len();
        if !code[after..].starts_with(&[':', ':']) {
            continue;
        }
        let Some(m0) = skip_ws(code, after + 2..).filter(|&m| ident_at(code, m) == "enter") else {
            continue;
        };
        let Some(open) = skip_ws(code, m0 + "enter".len()..).filter(|&o| code[o] == '(') else {
            continue;
        };
        if file.is_test_line(file.line(site)) {
            continue;
        }
        let close = delim_extent(code, open);
        for w in words(&code[open..close], "KernelKind") {
            let abs = open + w + "KernelKind".len();
            if code[abs..].starts_with(&[':', ':']) {
                if let Some(v0) = skip_ws(code, abs + 2..) {
                    let variant = ident_at(code, v0);
                    if !variant.is_empty() {
                        table.entered_kinds.insert(variant);
                    }
                }
            }
        }
        // Measured region: from past the enter call to the end of the
        // innermost enclosing fn body.
        let extents = fn_extents.get_or_insert_with(|| fn_body_extents(code));
        if let Some(&(_, body_close)) = extents
            .iter()
            .filter(|(o, c)| *o < site && site < *c)
            .max_by_key(|(o, _)| *o)
        {
            table.kernel_fns.push(KernelFn {
                file: idx,
                enter_line: file.line(site),
                region_start: file.line(close),
                region_start_col: file.col(close),
                region_end: file.line(body_close),
            });
        }
    }
}

/// `(open, close)` body brace offsets of every `fn` in the file.
fn fn_body_extents(chars: &[char]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for site in words(chars, "fn") {
        // Trait method declarations end without a body.
        let body = chars[site..].iter().position(|&c| c == '{' || c == ';');
        if let Some(open) = body.map(|p| site + p).filter(|&o| chars[o] == '{') {
            out.push((open, delim_extent(chars, open) - 1));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_for(src: &str) -> SymbolTable {
        SymbolTable::build(&[SourceFile::from_source(
            "crates/x/src/lib.rs".into(),
            true,
            src,
        )])
    }

    #[test]
    fn atomic_fields_are_keyed_by_struct() {
        let t = table_for(
            "struct Breaker {\n    state: AtomicU8,\n    pub failures: AtomicU32,\n}\nstatic HITS: AtomicU64 = AtomicU64::new(0);\n",
        );
        let keys: Vec<String> = t
            .atomic_fields
            .iter()
            .map(|f| format!("{}.{}", f.owner, f.field))
            .collect();
        assert_eq!(
            keys,
            vec!["Breaker.state", "Breaker.failures", "static.HITS"],
            "{:?}",
            t.atomic_fields
        );
    }

    #[test]
    fn initializer_expressions_are_not_declarations() {
        let t = table_for(
            "struct S { c: AtomicU64 }\nimpl S {\n    fn new() -> S { S { c: AtomicU64::new(0) } }\n}\n",
        );
        assert_eq!(t.atomic_fields.len(), 1, "{:?}", t.atomic_fields);
    }

    #[test]
    fn sites_resolve_receiver_fields_and_orderings() {
        let t = table_for(
            "struct S { c: AtomicU64 }\nimpl S {\n    fn bump(&self) { self.c.fetch_add(1, Ordering::Relaxed); }\n    fn read(&self) -> u64 { self.c.load(Ordering::Relaxed) }\n}\n",
        );
        assert_eq!(t.atomic_sites.len(), 2);
        assert!(t
            .atomic_sites
            .iter()
            .all(|s| s.field.as_deref() == Some("c")));
        assert!(t.relaxed_counters.contains("c"), "{:?}", t.relaxed_counters);
    }

    #[test]
    fn store_disqualifies_counter_classification() {
        let t = table_for(
            "struct S { level: AtomicU8 }\nimpl S {\n    fn set(&self, v: u8) { self.level.store(v, Ordering::Relaxed); }\n    fn get(&self) -> u8 { self.level.load(Ordering::Relaxed) }\n}\n",
        );
        assert!(t.relaxed_counters.is_empty(), "{:?}", t.relaxed_counters);
    }

    #[test]
    fn multi_line_cas_collects_both_orderings() {
        let t = table_for(
            "struct S { state: AtomicU8 }\nimpl S {\n    fn go(&self) {\n        let _ = self.state.compare_exchange(\n            0,\n            1,\n            Ordering::AcqRel,\n            Ordering::Acquire,\n        );\n    }\n}\n",
        );
        assert_eq!(t.atomic_sites.len(), 1);
        assert_eq!(t.atomic_sites[0].orderings, vec!["AcqRel", "Acquire"]);
        assert_eq!(t.atomic_sites[0].ordering_tokens.len(), 2);
    }

    #[test]
    fn kernel_variants_and_enter_sites() {
        let t = table_for(
            "pub enum KernelKind {\n    MatMul,\n    Ghost,\n}\nfn hot() {\n    let _p = KernelScope::enter(KernelKind::MatMul, || Work::matmul(1, 1, 1));\n}\n",
        );
        let names: Vec<&str> = t.kernel_variants.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, vec!["MatMul", "Ghost"]);
        assert!(t.entered_kinds.contains("MatMul"));
        let dead: Vec<&str> = t
            .dead_kernel_variants()
            .iter()
            .map(|v| v.name.as_str())
            .collect();
        assert_eq!(dead, vec!["Ghost"]);
        assert_eq!(t.kernel_fns.len(), 1);
    }

    #[test]
    fn test_code_is_excluded_from_the_table() {
        let t = table_for(
            "#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicU64) { a.store(1, Ordering::SeqCst); }\n}\n",
        );
        assert!(t.atomic_sites.is_empty());
    }
}
