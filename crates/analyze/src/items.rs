//! Item parser: function/impl/trait/mod/use/macro boundaries over the
//! lexed token stream.
//!
//! This sits between the lexer and the interprocedural passes: it
//! recovers just enough structure — which function a token belongs to,
//! which type owns a method, what a file imports — for the call graph
//! in [`crate::callgraph`] to resolve names across the workspace. It is
//! *not* a Rust parser:
//!
//! * generics and `where` clauses are skipped structurally (angle-depth
//!   matching that knows `->` is not a closing bracket);
//! * `macro_rules!` bodies are recorded as opaque spans and never
//!   parsed — macro-matcher fragments look like code but aren't;
//! * nested `fn` items are parsed as their own functions and their
//!   bodies excluded from the enclosing function's span; closure bodies
//!   stay with the function that wrote them (the closure runs on the
//!   caller's behalf as far as every pass here is concerned);
//! * `#[cfg(...)]` is not evaluated: both arms of a cfg pair are
//!   parsed, which over-approximates the live item set (conservative in
//!   the direction the passes need).

use crate::lexer::{Token, TokenKind};
use crate::source::{matching_brace, SourceFile};

/// One `fn` item: where it lives, who owns it, where its body is.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// The `impl`/`trait` type that owns this method, if any.
    pub self_type: Option<String>,
    /// Enclosing in-file module path (outermost first).
    pub module: Vec<String>,
    /// Token-index span of the body `{ … }` (inclusive braces), absent
    /// for bodiless declarations (trait method signatures, extern fns).
    pub body: Option<(usize, usize)>,
    /// Line of the `fn` keyword.
    pub line: u32,
}

/// One name brought into file scope by a `use` declaration:
/// `use beff_sim::pool::map_ordered;` → path `["beff_sim", "pool"]`,
/// name `map_ordered`, alias `map_ordered`.
#[derive(Debug, Clone)]
pub struct UseName {
    /// Path segments before the imported name (may be empty).
    pub path: Vec<String>,
    /// The original (last-segment) name.
    pub name: String,
    /// The in-scope spelling (`as` rename, or `name` itself).
    pub alias: String,
}

/// Everything the item parser recovers from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    pub uses: Vec<UseName>,
    /// Token spans of `macro_rules!` bodies — skipped, never parsed.
    pub macro_spans: Vec<(usize, usize)>,
}

impl FileItems {
    /// Is token index `i` inside a skipped `macro_rules!` body?
    pub fn in_macro(&self, i: usize) -> bool {
        self.macro_spans.iter().any(|&(a, b)| i >= a && i <= b)
    }
}

/// Keywords that can precede `(` without being a call.
pub const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "move", "as", "in", "where", "unsafe",
    "else", "break", "continue", "await", "let", "mut", "ref", "dyn", "impl", "box", "yield",
    "pub", "crate", "super", "use", "mod", "static", "const", "enum", "struct", "union", "trait",
];

/// Parse the item structure of `f`.
pub fn parse_items(f: &SourceFile) -> FileItems {
    let mut out = FileItems::default();
    let mut ctx = Ctx { module: Vec::new(), self_type: None };
    parse_range(&f.tokens, 0, f.tokens.len(), &mut ctx, &mut out);
    out
}

struct Ctx {
    module: Vec<String>,
    self_type: Option<String>,
}

/// Walk `toks[start..end]` collecting items; recurses into mod, impl,
/// trait and fn bodies with the context updated.
fn parse_range(toks: &[Token], start: usize, end: usize, ctx: &mut Ctx, out: &mut FileItems) {
    let mut i = start;
    while i < end {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "mod" => {
                // `mod name {` opens an inline module; `mod name;` is a
                // file reference handled by the per-file walk.
                if let (Some(n), Some(open)) = (toks.get(i + 1), toks.get(i + 2)) {
                    if n.kind == TokenKind::Ident && open.is_punct('{') {
                        if let Some(close) = matching_brace(toks, i + 2) {
                            ctx.module.push(n.text.clone());
                            let saved = ctx.self_type.take();
                            parse_range(toks, i + 3, close, ctx, out);
                            ctx.self_type = saved;
                            ctx.module.pop();
                            i = close + 1;
                            continue;
                        }
                    }
                }
                i += 1;
            }
            "macro_rules" => {
                // macro_rules ! name { … } — record and skip the body.
                if matches!(toks.get(i + 1), Some(b) if b.is_punct('!'))
                    && matches!(toks.get(i + 2), Some(n) if n.kind == TokenKind::Ident)
                {
                    if let Some(open) = toks.get(i + 3).filter(|o| o.is_punct('{')).map(|_| i + 3)
                    {
                        if let Some(close) = matching_brace(toks, open) {
                            out.macro_spans.push((open, close));
                            i = close + 1;
                            continue;
                        }
                    }
                }
                i += 1;
            }
            "fn" => {
                if let Some(adv) = parse_fn(toks, i, end, ctx, out) {
                    i = adv;
                } else {
                    i += 1;
                }
            }
            "impl" => {
                if let Some((ty, open)) = parse_impl_header(toks, i, end) {
                    if let Some(close) = matching_brace(toks, open) {
                        let saved = ctx.self_type.replace(ty);
                        parse_range(toks, open + 1, close, ctx, out);
                        ctx.self_type = saved;
                        i = close + 1;
                        continue;
                    }
                }
                i += 1;
            }
            "trait" => {
                // `trait Name … {` — default method bodies are methods
                // of the trait name.
                if let Some(n) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) {
                    if let Some(open) = find_block_open(toks, i + 2, end) {
                        if let Some(close) = matching_brace(toks, open) {
                            let saved = ctx.self_type.replace(n.text.clone());
                            parse_range(toks, open + 1, close, ctx, out);
                            ctx.self_type = saved;
                            i = close + 1;
                            continue;
                        }
                    }
                }
                i += 1;
            }
            "use" => {
                i = parse_use(toks, i + 1, end, out);
            }
            _ => i += 1,
        }
    }
}

/// Parse one `fn` item at `toks[i]` (the `fn` keyword). Returns the
/// index to resume at, or None if this `fn` is not an item (e.g. a
/// function-pointer type `fn(u32) -> u32`).
fn parse_fn(
    toks: &[Token],
    i: usize,
    end: usize,
    ctx: &mut Ctx,
    out: &mut FileItems,
) -> Option<usize> {
    let name_tok = toks.get(i + 1)?;
    if name_tok.kind != TokenKind::Ident {
        return None; // `fn(…)` pointer type, `Fn()` bound, etc.
    }
    // Signature: everything to the first `{` (body) or `;` (bodiless
    // declaration) outside brackets — the `;` of an array type
    // (`-> [u8; 4]`, `a: [u8; 4]`) ends nothing. `{` cannot appear in
    // a signature we care about — const-generic default blocks are not
    // used in this workspace.
    let mut depth = 0u32;
    let mut j = i + 2;
    while j < end {
        let t = &toks[j];
        if t.is_punct('[') || t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(']') || t.is_punct(')') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct('{') {
            let close = matching_brace(toks, j)?;
            let item = FnItem {
                name: name_tok.text.clone(),
                self_type: ctx.self_type.clone(),
                module: ctx.module.clone(),
                body: Some((j, close)),
                line: toks[i].line,
            };
            out.fns.push(item);
            // Recurse for nested fn items (their bodies are excluded
            // from this fn's call scan by the call graph).
            let saved = ctx.self_type.take();
            parse_range(toks, j + 1, close, ctx, out);
            ctx.self_type = saved;
            return Some(close + 1);
        } else if depth == 0 && t.is_punct(';') {
            out.fns.push(FnItem {
                name: name_tok.text.clone(),
                self_type: ctx.self_type.clone(),
                module: ctx.module.clone(),
                body: None,
                line: toks[i].line,
            });
            return Some(j + 1);
        }
        j += 1;
    }
    None
}

/// Parse an `impl` header starting at the `impl` keyword: skip
/// generics, read the type path (honoring `Trait for Type`), and
/// return (type name, index of the body `{`).
fn parse_impl_header(toks: &[Token], i: usize, end: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        j = skip_angles(toks, j, end)?;
    }
    // Scan the `[Trait for] Type` path up to `{` or `where`, skipping
    // generic argument lists; remember the last path ident seen, and
    // restart the memory at `for` (the self type is what follows it).
    let mut last_ident: Option<String> = None;
    while j < end {
        let t = &toks[j];
        if t.is_punct('{') {
            return last_ident.map(|ty| (ty, j));
        }
        if t.is_ident("where") {
            let open = find_block_open(toks, j + 1, end)?;
            let ty = last_ident?;
            return Some((ty, open));
        }
        if t.is_ident("for") {
            last_ident = None;
            j += 1;
            continue;
        }
        if t.is_punct('<') {
            j = skip_angles(toks, j, end)?;
            continue;
        }
        if t.kind == TokenKind::Ident
            && !matches!(t.text.as_str(), "dyn" | "mut" | "const" | "unsafe")
        {
            last_ident = Some(t.text.clone());
        }
        j += 1;
    }
    None
}

/// Skip a `<…>` group starting at the `<` at index `j`; returns the
/// index one past the matching `>`. A `>` preceded by `-` is an arrow,
/// not a close.
fn skip_angles(toks: &[Token], j: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = j;
    while k < end {
        let t = &toks[k];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') && !(k > 0 && toks[k - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return Some(k + 1);
            }
        }
        k += 1;
    }
    None
}

/// First `{` at or after `from` (for `trait … {` and `where` clauses).
fn find_block_open(toks: &[Token], from: usize, end: usize) -> Option<usize> {
    (from..end).find(|&k| toks[k].is_punct('{'))
}

/// Parse one `use` declaration starting just after the `use` keyword;
/// returns the index one past the terminating `;`. Handles grouped
/// imports (`use a::{b, c::d as e}`) recursively; glob imports
/// contribute nothing (the call graph falls back to workspace-wide
/// name lookup anyway).
fn parse_use(toks: &[Token], from: usize, end: usize, out: &mut FileItems) -> usize {
    let mut j = parse_use_tree(toks, from, end, &[], out);
    while j < end && !toks[j].is_punct(';') {
        j += 1;
    }
    j + 1
}

/// One use-tree: `path::to::name [as alias]`, `path::{tree, tree}`, or
/// `path::*`. Returns the index of the first token past the tree (a
/// `,`, `}`, or `;` terminator).
fn parse_use_tree(
    toks: &[Token],
    mut j: usize,
    end: usize,
    prefix: &[String],
    out: &mut FileItems,
) -> usize {
    let mut segs: Vec<String> = Vec::new();
    while j < end {
        let t = &toks[j];
        if t.kind != TokenKind::Ident || t.text == "as" {
            break;
        }
        segs.push(t.text.clone());
        j += 1;
        let at_path_sep = j + 1 < end && toks[j].is_punct(':') && toks[j + 1].is_punct(':');
        if !at_path_sep {
            break;
        }
        j += 2;
        if j < end && toks[j].is_punct('{') {
            let mut inner: Vec<String> = prefix.to_vec();
            inner.extend(segs);
            j += 1;
            loop {
                j = parse_use_tree(toks, j, end, &inner, out);
                if j < end && toks[j].is_punct(',') {
                    j += 1;
                    continue;
                }
                break;
            }
            if j < end && toks[j].is_punct('}') {
                j += 1;
            }
            return j;
        }
        if j < end && toks[j].is_punct('*') {
            return j + 1; // glob — nothing nameable to record
        }
    }
    if let Some(name) = segs.pop() {
        let mut alias = name.clone();
        if j + 1 < end && toks[j].is_ident("as") && toks[j + 1].kind == TokenKind::Ident {
            alias = toks[j + 1].text.clone();
            j += 2;
        }
        let mut path: Vec<String> = prefix.to_vec();
        path.extend(segs);
        out.uses.push(UseName { path, name, alias });
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(src: &str) -> FileItems {
        parse_items(&SourceFile::parse("crates/x/src/lib.rs", src))
    }

    fn fn_named<'a>(it: &'a FileItems, name: &str) -> &'a FnItem {
        it.fns.iter().find(|f| f.name == name).expect("fn present")
    }

    #[test]
    fn free_fn_and_method_are_distinguished() {
        let it = items("fn free() {}\nstruct S;\nimpl S {\n fn m(&self) {}\n}\n");
        assert_eq!(fn_named(&it, "free").self_type, None);
        assert_eq!(fn_named(&it, "m").self_type.as_deref(), Some("S"));
    }

    #[test]
    fn generics_and_where_clauses_are_skipped() {
        let it = items(
            "fn g<T: Clone, F: Fn(usize) -> T>(f: F) -> Vec<T> where T: Send {\n body();\n}\n",
        );
        let g = fn_named(&it, "g");
        assert!(g.body.is_some());
        assert_eq!(it.fns.len(), 1);
    }

    #[test]
    fn impl_trait_for_type_binds_methods_to_the_type() {
        let it = items("impl<T> Iterator for Wrap<T> {\n fn next(&mut self) -> Option<T> { None }\n}\n");
        assert_eq!(fn_named(&it, "next").self_type.as_deref(), Some("Wrap"));
    }

    #[test]
    fn impl_with_qualified_path_takes_last_segment() {
        let it = items("impl fmt::Display for Thing {\n fn fmt(&self) {}\n}\n");
        assert_eq!(fn_named(&it, "fmt").self_type.as_deref(), Some("Thing"));
    }

    #[test]
    fn impl_with_where_clause_finds_its_body() {
        let it = items("impl<T> Holder<T> where T: Clone {\n fn get(&self) {}\n}\n");
        assert_eq!(fn_named(&it, "get").self_type.as_deref(), Some("Holder"));
    }

    #[test]
    fn nested_modules_accumulate_paths() {
        let it = items("mod a {\n mod b {\n  fn deep() {}\n }\n fn shallow() {}\n}\n");
        assert_eq!(fn_named(&it, "deep").module, vec!["a", "b"]);
        assert_eq!(fn_named(&it, "shallow").module, vec!["a"]);
    }

    #[test]
    fn nested_fn_items_are_separate() {
        let it = items("fn outer() {\n fn inner() { x(); }\n inner();\n}\n");
        assert_eq!(it.fns.len(), 2);
        let outer = fn_named(&it, "outer");
        let inner = fn_named(&it, "inner");
        let (oa, ob) = outer.body.expect("outer body");
        let (ia, ib) = inner.body.expect("inner body");
        assert!(ia > oa && ib < ob, "inner body nests inside outer");
    }

    #[test]
    fn macro_rules_bodies_are_recorded_not_parsed() {
        let it = items("macro_rules! m {\n ($x:expr) => { fn not_an_item() {} };\n}\nfn real() {}\n");
        assert_eq!(it.fns.len(), 1, "the matcher's fn must not parse as an item");
        assert_eq!(it.fns[0].name, "real");
        assert_eq!(it.macro_spans.len(), 1);
    }

    #[test]
    fn trait_default_methods_bind_to_the_trait() {
        let it = items("trait Runner {\n fn id(&self) -> u32;\n fn run(&self) { self.id(); }\n}\n");
        assert_eq!(fn_named(&it, "run").self_type.as_deref(), Some("Runner"));
        assert!(fn_named(&it, "id").body.is_none(), "signature only");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let it = items("fn takes(f: fn(u32) -> u32) { f(1); }\n");
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].name, "takes");
    }

    #[test]
    fn array_types_in_a_signature_do_not_end_it() {
        let it = items(
            "fn ret() -> [usize; 6] {\n [0; 6]\n}\nfn arg(a: [u8; 4], b: &[(u8, [u8; 2])]) -> u8 { a[0] }\nfn decl(a: [u8; 4]);\n",
        );
        assert_eq!(it.fns.len(), 3, "{:?}", it.fns);
        assert!(fn_named(&it, "ret").body.is_some());
        assert!(fn_named(&it, "arg").body.is_some());
        assert!(fn_named(&it, "decl").body.is_none(), "a `;` outside brackets still ends a declaration");
    }

    #[test]
    fn impl_trait_in_signature_parses() {
        let it = items("fn make() -> impl Fn(u32) -> u32 {\n |x| x + 1\n}\n");
        assert_eq!(it.fns.len(), 1);
        assert!(it.fns[0].body.is_some());
    }

    #[test]
    fn use_declarations_flatten_groups_and_aliases() {
        let it = items(
            "use beff_sim::pool::map_ordered;\nuse beff_sim::{Rng64, sched::{SimScheduler as Sched}};\nuse std::collections::*;\n",
        );
        let find = |alias: &str| it.uses.iter().find(|u| u.alias == alias).expect("use entry");
        let mo = find("map_ordered");
        assert_eq!(mo.path, vec!["beff_sim", "pool"]);
        assert_eq!(mo.name, "map_ordered");
        let rng = find("Rng64");
        assert_eq!(rng.path, vec!["beff_sim"]);
        let sched = find("Sched");
        assert_eq!(sched.name, "SimScheduler");
        assert_eq!(sched.path, vec!["beff_sim", "sched"]);
    }
}
