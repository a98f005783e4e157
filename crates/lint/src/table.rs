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
//!   allocation rule);
//! - **metric registrations** — string-literal names passed to
//!   `.counter("..")`/`.gauge(..)`/`.histogram(..)` in library code, vs the
//!   names documented in `DESIGN.md`'s machine-readable schema block
//!   (`<!-- metric-schema:start/end -->`).
//!
//! The table also *classifies* atomic fields: a field whose every
//! non-test access is `Relaxed` and drawn from the pure-accumulator op set
//! (`load`, `fetch_add`, `fetch_sub`, `fetch_max`, `fetch_min`) publishes
//! nothing and can be proven benign without a per-site comment — the
//! `ordering-justified` rule exempts those sites, and stale justification
//! comments on them become findings.

use crate::lexer::is_ident_char;
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

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

/// One `field: AtomicXxx` (or `static NAME: AtomicXxx`) declaration.
#[derive(Debug, Clone)]
pub struct AtomicField {
    /// Enclosing struct name, or `static` for file-level statics.
    pub owner: String,
    /// Field (or static) name.
    pub field: String,
    /// The atomic type name (e.g. `AtomicU64`).
    pub ty: String,
    /// Report path of the declaring file.
    pub path: String,
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
    pub op: String,
    /// Every `Ordering::` variant in the call's argument list.
    pub orderings: Vec<String>,
    /// Positions of the `Ordering` tokens: `(1-based line, 0-based col)`.
    pub ordering_tokens: Vec<(usize, usize)>,
    /// Report path.
    pub path: String,
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
    /// Report path of the enum.
    pub path: String,
    /// 1-based line of the variant.
    pub line: usize,
}

/// The body extent of a function that opens a `KernelScope`, with the
/// position where the scope starts (allocation checks apply after it).
#[derive(Debug, Clone)]
pub struct KernelFn {
    /// Report path.
    pub path: String,
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

/// One metric registered under a string-literal name in library code.
#[derive(Debug, Clone)]
pub struct MetricReg {
    /// The metric name.
    pub name: String,
    /// Report path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
}

/// The workspace symbol table — everything pass 2 reasons about.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Atomic field/static declarations, keyed `owner.field` in order.
    pub atomic_fields: Vec<AtomicField>,
    /// Every atomic op site with `Ordering` arguments (non-test code).
    pub atomic_sites: Vec<AtomicSite>,
    /// Field names proven to be pure `Relaxed` accumulators.
    pub relaxed_counters: BTreeSet<String>,
    /// `Ordering` token positions `(path, line, col)` on proven-counter
    /// sites: `ordering-justified` needs no comment there.
    pub exempt_ordering_tokens: BTreeSet<(String, usize, usize)>,
    /// `KernelKind` variant declarations.
    pub kernel_variants: Vec<KernelVariant>,
    /// Variants actually passed to `KernelScope::enter(KernelKind::X, ..)`.
    pub entered_kinds: BTreeSet<String>,
    /// Functions that open a kernel scope (hot-path allocation domain).
    pub kernel_fns: Vec<KernelFn>,
    /// Metric registrations in library code.
    pub metric_regs: Vec<MetricReg>,
    /// Metric names documented in `DESIGN.md`'s schema block → 1-based
    /// line in `DESIGN.md`.
    pub doc_metrics: BTreeMap<String, usize>,
    /// Whether a `DESIGN.md` with a schema block was found (the
    /// `dead-metric` rule only runs when it was).
    pub has_metric_schema: bool,
}

impl SymbolTable {
    /// Builds the table over every scanned file. `root` locates the
    /// optional `DESIGN.md` side input.
    pub fn build(root: &Path, files: &[SourceFile]) -> SymbolTable {
        let (doc_metrics, has_metric_schema) = parse_metric_schema(root);
        let mut table = SymbolTable {
            doc_metrics,
            has_metric_schema,
            ..SymbolTable::default()
        };
        for file in files {
            let flat = Flat::new(file);
            collect_atomic_fields(&flat, &mut table.atomic_fields);
            collect_atomic_sites(&flat, &mut table.atomic_sites);
            collect_kernels(&flat, &mut table);
            if file.kind == FileKind::Lib {
                collect_metrics(&flat, &mut table.metric_regs);
            }
        }
        table.classify_counters();
        table
    }

    /// Derives `relaxed_counters` and the exempt token set from the raw
    /// field/site inventory.
    fn classify_counters(&mut self) {
        let declared: BTreeSet<&str> = self
            .atomic_fields
            .iter()
            .map(|f| f.field.as_str())
            .collect();
        let mut by_field: BTreeMap<&str, Vec<&AtomicSite>> = BTreeMap::new();
        for site in &self.atomic_sites {
            if let Some(field) = &site.field {
                if declared.contains(field.as_str()) {
                    by_field.entry(field.as_str()).or_default().push(site);
                }
            }
        }
        let mut counters = BTreeSet::new();
        for (field, sites) in &by_field {
            let pure = sites.iter().all(|s| {
                COUNTER_OPS.contains(&s.op.as_str())
                    && !s.orderings.is_empty()
                    && s.orderings.iter().all(|o| o == "Relaxed")
            });
            if pure && !sites.is_empty() {
                counters.insert((*field).to_string());
            }
        }
        let mut exempt = BTreeSet::new();
        for site in &self.atomic_sites {
            let is_counter = site
                .field
                .as_ref()
                .is_some_and(|f| counters.contains(f.as_str()));
            if is_counter {
                for &(line, col) in &site.ordering_tokens {
                    exempt.insert((site.path.clone(), line, col));
                }
            }
        }
        self.relaxed_counters = counters;
        self.exempt_ordering_tokens = exempt;
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
            if let Some(field) = &site.field {
                if declared.contains(field.as_str()) {
                    map.entry(field.as_str()).or_default().push(site);
                }
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

/// A file flattened to one char sequence with offset ↔ line/col maps, so
/// multi-line constructs (call argument lists, brace extents) can be
/// matched without per-line special cases. Operates on scrubbed code —
/// which is position-identical to the original — and keeps the original
/// text around for string-literal extraction.
struct Flat<'a> {
    file: &'a SourceFile,
    chars: Vec<char>,
    orig: Vec<char>,
    /// 0-based line index per char offset.
    line_of: Vec<usize>,
    /// Char offset of each 0-based line's start.
    line_start: Vec<usize>,
}

impl<'a> Flat<'a> {
    fn new(file: &'a SourceFile) -> Flat<'a> {
        let joined = file.code.join("\n");
        let orig_joined = file.lines.join("\n");
        let chars: Vec<char> = joined.chars().collect();
        let orig: Vec<char> = orig_joined.chars().collect();
        let mut line_of = Vec::with_capacity(chars.len() + 1);
        let mut line_start = vec![0usize];
        let mut line = 0usize;
        for (i, &c) in chars.iter().enumerate() {
            line_of.push(line);
            if c == '\n' {
                line += 1;
                line_start.push(i + 1);
            }
        }
        line_of.push(line);
        Flat {
            file,
            chars,
            orig,
            line_of,
            line_start,
        }
    }

    /// 1-based line of a char offset.
    fn line(&self, offset: usize) -> usize {
        self.line_of[offset.min(self.line_of.len() - 1)] + 1
    }

    /// 0-based column of a char offset.
    fn col(&self, offset: usize) -> usize {
        let line = self.line_of[offset.min(self.line_of.len() - 1)];
        offset - self.line_start[line]
    }

    /// `true` when the offset is inside test-marked code.
    fn is_test(&self, offset: usize) -> bool {
        self.file.is_test_line(self.line(offset))
    }

    /// Every word-boundary occurrence of `word` in the scrubbed text.
    fn word_sites(&self, word: &str) -> Vec<usize> {
        word_sites_in(&self.chars, word)
    }
}

/// Word-boundary search over a char slice.
fn word_sites_in(chars: &[char], word: &str) -> Vec<usize> {
    let needle: Vec<char> = word.chars().collect();
    let mut out = Vec::new();
    if needle.is_empty() || chars.len() < needle.len() {
        return out;
    }
    for start in 0..=chars.len() - needle.len() {
        if chars[start..start + needle.len()] != needle[..] {
            continue;
        }
        let before_ok = start == 0 || !is_ident_char(chars[start - 1]);
        let after = start + needle.len();
        let after_ok = after >= chars.len() || !is_ident_char(chars[after]);
        if before_ok && after_ok {
            out.push(start);
        }
    }
    out
}

/// Skips whitespace forward; returns the next non-ws offset, if any.
fn fwd_ws(chars: &[char], mut i: usize) -> Option<usize> {
    while i < chars.len() {
        if !chars[i].is_whitespace() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Skips whitespace backward from `i` (exclusive); returns the last
/// non-ws offset before `i`, if any.
fn back_ws(chars: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !chars[j].is_whitespace() {
            return Some(j);
        }
    }
    None
}

/// Reads the identifier ending at `end` (inclusive), returning its start.
fn ident_start(chars: &[char], end: usize) -> usize {
    let mut s = end;
    while s > 0 && is_ident_char(chars[s - 1]) {
        s -= 1;
    }
    s
}

/// Reads the identifier starting at `start`.
fn ident_at(chars: &[char], start: usize) -> String {
    chars[start..]
        .iter()
        .take_while(|c| is_ident_char(**c))
        .collect()
}

/// Given an opening delimiter offset, returns the offset just past its
/// matching close (`()` / `{}` / `[]` chosen by the char at `open`).
fn delim_extent(chars: &[char], open: usize) -> usize {
    let (o, c) = match chars.get(open) {
        Some('(') => ('(', ')'),
        Some('{') => ('{', '}'),
        Some('[') => ('[', ']'),
        _ => return open + 1,
    };
    let mut depth = 0i32;
    let mut i = open;
    while i < chars.len() {
        if chars[i] == o {
            depth += 1;
        } else if chars[i] == c {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    chars.len()
}

/// Collects `name: AtomicXxx` declarations (struct fields and statics).
/// Initializer expressions (`AtomicU64::new(0)`) are excluded by requiring
/// the type name not be followed by `::`.
fn collect_atomic_fields(flat: &Flat<'_>, out: &mut Vec<AtomicField>) {
    // Struct extents for owner attribution.
    let mut structs: Vec<(String, usize, usize)> = Vec::new();
    for site in flat.word_sites("struct") {
        let Some(n0) = fwd_ws(&flat.chars, site + "struct".len()) else {
            continue;
        };
        let name = ident_at(&flat.chars, n0);
        if name.is_empty() {
            continue;
        }
        // Find the body `{` before any `;` (unit/tuple structs have none).
        let mut i = n0 + name.len();
        let mut open = None;
        while i < flat.chars.len() {
            match flat.chars[i] {
                '{' => {
                    open = Some(i);
                    break;
                }
                ';' => break,
                _ => {}
            }
            i += 1;
        }
        if let Some(open) = open {
            structs.push((name, open, delim_extent(&flat.chars, open)));
        }
    }

    for ty_suffix in ATOMIC_TYS {
        let ty = format!("Atomic{ty_suffix}");
        for site in flat.word_sites(&ty) {
            if flat.is_test(site) {
                continue;
            }
            // `AtomicU64::new(..)` is an expression, not a declaration.
            let after = site + ty.len();
            if flat.chars.get(after) == Some(&':') && flat.chars.get(after + 1) == Some(&':') {
                continue;
            }
            // Walk back over the type path (`std::sync::atomic::`), then
            // expect a single `:` preceded by the field name.
            let mut j = site;
            while let Some(p) = back_ws(&flat.chars, j) {
                if p == 0 || flat.chars[p] != ':' || flat.chars[p - 1] != ':' {
                    break;
                }
                let seg_end = match back_ws(&flat.chars, p - 1) {
                    Some(e) if is_ident_char(flat.chars[e]) => e,
                    _ => break,
                };
                j = ident_start(&flat.chars, seg_end);
            }
            let Some(colon) = back_ws(&flat.chars, j) else {
                continue;
            };
            if flat.chars[colon] != ':' || (colon >= 1 && flat.chars[colon - 1] == ':') {
                continue;
            }
            let Some(name_end) = back_ws(&flat.chars, colon) else {
                continue;
            };
            if !is_ident_char(flat.chars[name_end]) {
                continue;
            }
            let name_start = ident_start(&flat.chars, name_end);
            let field = ident_at(&flat.chars, name_start);
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
                    let before: String = {
                        let from = name_start.saturating_sub(24);
                        flat.chars[from..name_start].iter().collect()
                    };
                    if before.contains("static") {
                        "static".to_string()
                    } else {
                        continue;
                    }
                }
            };
            out.push(AtomicField {
                owner,
                field,
                ty: ty.clone(),
                path: flat.file.rel.clone(),
                line: flat.line(site),
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
}

/// Collects every atomic op call that names an `Ordering::` variant.
fn collect_atomic_sites(flat: &Flat<'_>, out: &mut Vec<AtomicSite>) {
    for op in ATOMIC_OPS {
        for site in flat.word_sites(op) {
            if flat.is_test(site) {
                continue;
            }
            // Must be a `.op(` method call.
            let Some(dot) = back_ws(&flat.chars, site) else {
                continue;
            };
            if flat.chars[dot] != '.' {
                continue;
            }
            let Some(open) = fwd_ws(&flat.chars, site + op.len()) else {
                continue;
            };
            if flat.chars[open] != '(' {
                continue;
            }
            let close = delim_extent(&flat.chars, open);
            // Orderings inside the argument list.
            let args = &flat.chars[open..close];
            let mut orderings = Vec::new();
            let mut tokens = Vec::new();
            for w in word_sites_in(args, "Ordering") {
                let abs = open + w;
                let after = abs + "Ordering".len();
                if flat.chars.get(after) != Some(&':') || flat.chars.get(after + 1) != Some(&':') {
                    continue;
                }
                let Some(v0) = fwd_ws(&flat.chars, after + 2) else {
                    continue;
                };
                let variant = ident_at(&flat.chars, v0);
                if ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"].contains(&variant.as_str())
                {
                    orderings.push(variant);
                    tokens.push((flat.line(abs), flat.col(abs)));
                }
            }
            if orderings.is_empty() {
                continue;
            }
            // Receiver: the ident chain segment directly before the dot.
            let field = back_ws(&flat.chars, dot).and_then(|e| {
                if is_ident_char(flat.chars[e]) {
                    let start = ident_start(&flat.chars, e);
                    let name = ident_at(&flat.chars, start);
                    if name == "self" {
                        None
                    } else {
                        Some(name)
                    }
                } else {
                    None
                }
            });
            out.push(AtomicSite {
                field,
                op: (*op).to_string(),
                orderings,
                ordering_tokens: tokens,
                path: flat.file.rel.clone(),
                line: flat.line(site),
                column: flat.col(site),
            });
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, a.column).cmp(&(&b.path, b.line, b.column)));
}

/// Collects the `KernelKind` enum's variants, every variant passed to
/// `KernelScope::enter`, and the measured region of each entering
/// function.
fn collect_kernels(flat: &Flat<'_>, table: &mut SymbolTable) {
    // Variant declarations: `enum KernelKind { .. }`.
    for site in flat.word_sites("enum") {
        let Some(n0) = fwd_ws(&flat.chars, site + "enum".len()) else {
            continue;
        };
        if ident_at(&flat.chars, n0) != "KernelKind" {
            continue;
        }
        let mut i = n0 + "KernelKind".len();
        while i < flat.chars.len() && flat.chars[i] != '{' {
            i += 1;
        }
        if i >= flat.chars.len() {
            continue;
        }
        let close = delim_extent(&flat.chars, i);
        // Variants: idents at depth 1 whose previous non-ws char is `{`,
        // `,` or `]` (closing an attribute).
        let mut j = i + 1;
        while j < close.saturating_sub(1) {
            let c = flat.chars[j];
            if c == '#' {
                // Skip `#[..]` attribute.
                if let Some(b) = fwd_ws(&flat.chars, j + 1) {
                    if flat.chars[b] == '[' {
                        j = delim_extent(&flat.chars, b);
                        continue;
                    }
                }
            }
            if is_ident_char(c) && (j == 0 || !is_ident_char(flat.chars[j - 1])) {
                let name = ident_at(&flat.chars, j);
                let end = j + name.len();
                // A plain variant is followed by `,`, the closing brace, or an
                // explicit discriminant (`Variant = 3,`); data-carrying
                // variants would be followed by `(`/`{`. Numeric tokens are
                // discriminants, not variant names.
                let next = fwd_ws(&flat.chars, end);
                let ok = match next {
                    Some(n) => {
                        flat.chars[n] == ','
                            || n + 1 >= close
                            || (flat.chars[n] == '=' && flat.chars.get(n + 1) != Some(&'='))
                    }
                    None => true,
                };
                let is_name = name.chars().next().is_some_and(|c| !c.is_ascii_digit());
                if ok && is_name {
                    table.kernel_variants.push(KernelVariant {
                        name,
                        path: flat.file.rel.clone(),
                        line: flat.line(j),
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
    for site in flat.word_sites("KernelScope") {
        let after = site + "KernelScope".len();
        if flat.chars.get(after) != Some(&':') || flat.chars.get(after + 1) != Some(&':') {
            continue;
        }
        let Some(m0) = fwd_ws(&flat.chars, after + 2) else {
            continue;
        };
        if ident_at(&flat.chars, m0) != "enter" {
            continue;
        }
        let Some(open) = fwd_ws(&flat.chars, m0 + "enter".len()) else {
            continue;
        };
        if flat.chars[open] != '(' {
            continue;
        }
        let close = delim_extent(&flat.chars, open);
        let args = &flat.chars[open..close];
        for w in word_sites_in(args, "KernelKind") {
            let abs = open + w + "KernelKind".len();
            if flat.chars.get(abs) == Some(&':') && flat.chars.get(abs + 1) == Some(&':') {
                if let Some(v0) = fwd_ws(&flat.chars, abs + 2) {
                    let variant = ident_at(&flat.chars, v0);
                    if !variant.is_empty() && !flat.is_test(site) {
                        table.entered_kinds.insert(variant);
                    }
                }
            }
        }
        if flat.is_test(site) {
            continue;
        }
        // Measured region: from past the enter call to the end of the
        // innermost enclosing fn body.
        let extents = fn_extents.get_or_insert_with(|| fn_body_extents(&flat.chars));
        if let Some(&(_, body_close)) = extents
            .iter()
            .filter(|(o, c)| *o < site && site < *c)
            .max_by_key(|(o, _)| *o)
        {
            table.kernel_fns.push(KernelFn {
                path: flat.file.rel.clone(),
                enter_line: flat.line(site),
                region_start: flat.line(close),
                region_start_col: flat.col(close),
                region_end: flat.line(body_close),
            });
        }
    }
}

/// `(open, close)` body brace offsets of every `fn` in the file.
fn fn_body_extents(chars: &[char]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for site in word_sites_in(chars, "fn") {
        let mut i = site + 2;
        let mut open = None;
        while i < chars.len() {
            match chars[i] {
                '{' => {
                    open = Some(i);
                    break;
                }
                // Trait method declarations end without a body.
                ';' => break,
                _ => {}
            }
            i += 1;
        }
        if let Some(open) = open {
            out.push((open, delim_extent(chars, open) - 1));
        }
    }
    out
}

/// Collects string-literal metric registrations: `.counter("name")` etc.
fn collect_metrics(flat: &Flat<'_>, out: &mut Vec<MetricReg>) {
    const METRIC_FNS: &[&str] = &[
        "counter",
        "gauge",
        "histogram",
        "try_counter",
        "try_gauge",
        "try_histogram",
        "try_histogram_with",
    ];
    for f in METRIC_FNS {
        for site in flat.word_sites(f) {
            if flat.is_test(site) {
                continue;
            }
            let Some(dot) = back_ws(&flat.chars, site) else {
                continue;
            };
            if flat.chars[dot] != '.' {
                continue;
            }
            let Some(open) = fwd_ws(&flat.chars, site + f.len()) else {
                continue;
            };
            if flat.chars[open] != '(' {
                continue;
            }
            // The scrubbed text blanks literals; read the name out of the
            // original text at the same offsets.
            let Some(q0) = fwd_ws(&flat.orig, open + 1) else {
                continue;
            };
            if flat.orig.get(q0) != Some(&'"') {
                continue;
            }
            let mut name = String::new();
            let mut k = q0 + 1;
            while k < flat.orig.len() && flat.orig[k] != '"' {
                name.push(flat.orig[k]);
                k += 1;
            }
            if !name.is_empty() {
                out.push(MetricReg {
                    name,
                    path: flat.file.rel.clone(),
                    line: flat.line(site),
                });
            }
        }
    }
}

/// Parses the metric schema block out of `DESIGN.md`: backticked names
/// between `<!-- metric-schema:start -->` and `<!-- metric-schema:end -->`.
fn parse_metric_schema(root: &Path) -> (BTreeMap<String, usize>, bool) {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(root.join("DESIGN.md")) else {
        return (out, false);
    };
    let mut in_block = false;
    let mut saw_block = false;
    for (idx, line) in text.lines().enumerate() {
        if line.contains("metric-schema:start") {
            in_block = true;
            saw_block = true;
            continue;
        }
        if line.contains("metric-schema:end") {
            in_block = false;
            continue;
        }
        if !in_block {
            continue;
        }
        // Backticked tokens that look like metric names.
        for (i, chunk) in line.split('`').enumerate() {
            // Odd chunks are inside backticks.
            if i % 2 == 1
                && chunk.contains('.')
                && !chunk.is_empty()
                && chunk
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
            {
                out.entry(chunk.to_string()).or_insert(idx + 1);
            }
        }
    }
    (out, saw_block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};
    use std::path::PathBuf;

    fn table_for(src: &str) -> SymbolTable {
        let files = vec![SourceFile::from_source(
            PathBuf::from("mem.rs"),
            "crates/x/src/lib.rs".into(),
            FileKind::Lib,
            src,
        )];
        SymbolTable::build(Path::new("/nonexistent-table-root"), &files)
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
    fn metric_registrations_read_literal_names() {
        let t = table_for(
            "fn wire(r: &Registry) {\n    let _c = r.counter(\"serve.submitted\");\n    let _g = r.gauge(\"serve.depth\");\n}\n",
        );
        let names: Vec<&str> = t.metric_regs.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["serve.submitted", "serve.depth"]);
    }

    #[test]
    fn test_code_is_excluded_from_the_table() {
        let t = table_for(
            "#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicU64) { a.store(1, Ordering::SeqCst); }\n}\n",
        );
        assert!(t.atomic_sites.is_empty());
    }
}
