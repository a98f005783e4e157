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

use crate::lexer::{body, seq, Kind, Token};
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

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
    /// Token indices of the measured region: from past the enter call's
    /// `)` to the function body's closing `}`.
    pub region: Range<usize>,
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
            table.collect(file, idx);
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

    /// The one walk over `file`'s tokens, dispatching on each token's text.
    /// `idx` is the file's index.
    fn collect(&mut self, file: &SourceFile, idx: usize) {
        let t = &file.tokens;
        // `(open, close, name)` of every struct and fn body seen so far: an
        // item's keyword comes before its body, so every body enclosing a
        // token is known when the walk reaches it.
        let mut structs: Vec<(usize, usize, &str)> = Vec::new();
        let mut fns: Vec<(usize, usize, &str)> = Vec::new();
        for (i, tok) in t.iter().enumerate() {
            let live = !file.is_test_line(tok.line);
            match tok.text.as_str() {
                // Unit and tuple structs and trait method declarations reach
                // a `;` first.
                "struct" | "fn" => {
                    let name = t.get(i + 1).filter(|n| n.kind == Kind::Word);
                    if let (Some(name), Some(open)) = (name, body(t, i + 2)) {
                        let bodies = if tok.is("fn") { &mut fns } else { &mut structs };
                        bodies.push((open, t[open].close, &name.text));
                    }
                }
                "enum" if seq(t, i + 1, &["KernelKind"]) => self.kernel_variants(t, idx, i),
                "KernelScope" if live && seq(t, i + 1, &["::", "enter", "("]) => {
                    let close = t[i + 3].close;
                    for k in i + 3..close.min(t.len()) {
                        let variant = t.get(k + 2).filter(|v| v.kind == Kind::Word);
                        if let (true, Some(v)) = (seq(t, k, &["KernelKind", "::"]), variant) {
                            self.entered_kinds.insert(v.text.clone());
                        }
                    }
                    // Measured region: from past the enter call to the end
                    // of the innermost enclosing fn body.
                    if let Some((_, body_close, _)) = innermost(&fns, i) {
                        self.kernel_fns.push(KernelFn {
                            file: idx,
                            enter_line: tok.line,
                            region: close + 1..body_close,
                        });
                    }
                }
                text if live && i > 0 && t[i - 1].is(".") && seq(t, i + 1, &["("]) => {
                    self.atomic_sites.extend(atomic_site(t, idx, i, text));
                }
                // `AtomicU64::new(..)` is an expression, not a declaration.
                text if live && is_atomic_type(text) && !seq(t, i + 1, &["::"]) => {
                    let owner = innermost(&structs, i).map(|(.., name)| name);
                    self.atomic_fields.extend(atomic_field(t, i, owner));
                }
                _ => {}
            }
        }
    }

    /// Collects the variants of the `enum KernelKind` at `t[at]`: the words
    /// at the top level of its body followed by `,`, `=` (an explicit
    /// discriminant) or the closing brace.
    fn kernel_variants(&mut self, t: &[Token], idx: usize, at: usize) {
        let Some(open) = body(t, at) else { return };
        let close = t[open].close;
        let mut k = open + 1;
        while k < close {
            if seq(t, k, &["#", "["]) {
                k = t[k + 1].close + 1;
                continue;
            }
            let name = &t[k];
            let plain = k + 1 >= close || seq(t, k + 1, &[","]) || seq(t, k + 1, &["="]);
            let numeric = name.text.starts_with(|c: char| c.is_ascii_digit());
            if plain && name.kind == Kind::Word && !numeric {
                self.kernel_variants.push(KernelVariant {
                    name: name.text.clone(),
                    file: idx,
                    line: name.line,
                });
            }
            k += 1;
        }
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

/// `(token, variant)` of every `Ordering::<variant>` in `tokens`.
pub(crate) fn ordering_tokens(tokens: &[Token]) -> impl Iterator<Item = (&Token, &'static str)> {
    tokens.windows(3).filter_map(|w| {
        let variant = ORDERINGS.iter().find(|o| w[2].is(o))?;
        (w[0].is("Ordering") && w[1].is("::")).then_some((&w[0], *variant))
    })
}

/// The innermost of `bodies` (`(open, close, item)`) enclosing token `i`.
fn innermost<T: Copy>(bodies: &[(usize, usize, T)], i: usize) -> Option<(usize, usize, T)> {
    let enclosing = bodies
        .iter()
        .filter(|(open, close, _)| *open < i && i < *close);
    enclosing.max_by_key(|(open, ..)| *open).copied()
}

/// `true` for `AtomicBool`, `AtomicU64` and the other atomic type names.
fn is_atomic_type(text: &str) -> bool {
    text.strip_prefix("Atomic")
        .is_some_and(|ty| ATOMIC_TYS.contains(&ty))
}

/// The `name: AtomicXxx` declaration whose type name is `t[at]`, the path
/// before it (`std::sync::atomic::`) included.
/// `owner` is the innermost enclosing struct; outside one, only a `static`
/// declares a field, anything else is a local or parameter annotation.
fn atomic_field(t: &[Token], at: usize, owner: Option<&str>) -> Option<AtomicField> {
    let mut ty = at;
    while ty >= 2 && t[ty - 1].is("::") && t[ty - 2].kind == Kind::Word {
        ty -= 2;
    }
    let name = ty.checked_sub(2).filter(|&n| t[n + 1].is(":"))?;
    if t[name].kind != Kind::Word || t[name].is("mut") {
        return None;
    }
    let owner = match owner {
        Some(owner) => owner,
        None => {
            let before = |k: usize| name.checked_sub(k).map(|b| t[b].text.as_str());
            match (before(2), before(1)) {
                (_, Some("static")) | (Some("static"), Some("mut")) => "static",
                _ => return None,
            }
        }
    };
    Some(AtomicField {
        owner: owner.to_string(),
        field: t[name].text.clone(),
    })
}

/// The atomic op call whose method name is `t[at]` (after a `.`, before a
/// `(`), when its argument list names an `Ordering::` variant. The
/// receiver field is the word before the `.`.
fn atomic_site(t: &[Token], idx: usize, at: usize, method: &str) -> Option<AtomicSite> {
    let op = *ATOMIC_OPS.iter().find(|op| **op == method)?;
    let args = &t[at + 1..t[at + 1].close.min(t.len())];
    let (orderings, ordering_tokens) = ordering_tokens(args)
        .map(|(tok, variant)| (variant, (tok.line, tok.col)))
        .unzip::<_, _, Vec<_>, Vec<_>>();
    if orderings.is_empty() {
        return None;
    }
    let receiver = at.checked_sub(2).map(|r| &t[r]);
    Some(AtomicSite {
        field: receiver
            .filter(|r| r.kind == Kind::Word && !r.is("self"))
            .map(|r| r.text.clone()),
        op,
        orderings,
        ordering_tokens,
        file: idx,
        line: t[at].line,
        column: t[at].col,
    })
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
