//! File and workspace models built on the token stream.
//!
//! [`FileModel`] wraps one lexed source file with the derived per-line
//! state the rules need: the `#[cfg(test)]` mask.
//! [`WorkspaceModel`] holds every classified file plus the cross-file
//! item index (free functions and methods with body token ranges) that
//! the shared body walk ([`crate::flow`]) turns into events and call
//! edges.

use std::fs;
use std::path::Path;

use crate::context::{classify, FileCtx};
use crate::lex::{lex, Tok, TokKind};
use crate::walk::{collect_files, rel_str};

/// One lexed + classified source file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative slash-separated path.
    pub rel: String,
    /// Token stream (comments excluded, literals blanked).
    pub toks: Vec<Tok>,
    /// Per-line: inside a `#[cfg(test)]`-gated region?
    pub test_mask: Vec<bool>,
}

impl FileModel {
    /// Lex and derive all per-line state.
    pub fn parse(rel: &str, source: &str) -> FileModel {
        let lx = lex(source);
        let test_mask = cfg_test_mask(&lx.toks, &lx.line_depth, lx.n_lines);
        FileModel {
            rel: rel.to_string(),
            toks: lx.toks,
            test_mask,
        }
    }

    /// Is the 1-based line inside a `#[cfg(test)]` region?
    pub fn masked(&self, line: u32) -> bool {
        self.test_mask
            .get(line as usize - 1)
            .copied()
            .unwrap_or(false)
    }
}

/// Per-line mask: inside a `#[cfg(test)]`-gated item (brace-delimited)?
///
/// Same state machine as the regex-era linter: the attribute arms the
/// mask, the first deeper line enters the region, and the region ends
/// when depth falls back to the attribute's level.
fn cfg_test_mask(toks: &[Tok], line_depth: &[u32], n_lines: usize) -> Vec<bool> {
    // Lines on which a `#[cfg(test)]` attribute starts.
    let mut attr_line = vec![false; n_lines + 1];
    for w in toks.windows(7) {
        if w[0].is_punct("#")
            && w[1].is_punct("[")
            && w[2].is_ident("cfg")
            && w[3].is_punct("(")
            && w[4].is_ident("test")
            && w[5].is_punct(")")
            && w[6].is_punct("]")
        {
            let idx = w[0].line as usize - 1;
            if idx < attr_line.len() {
                attr_line[idx] = true;
            }
        }
    }

    #[derive(Clone, Copy)]
    enum St {
        Out,
        Armed(u32),
        In(u32),
    }
    let mut st = St::Out;
    let mut mask = vec![false; n_lines];
    for i in 0..n_lines {
        let depth = line_depth.get(i).copied().unwrap_or(0);
        match st {
            St::Out => {
                if attr_line[i] {
                    st = St::Armed(depth);
                    mask[i] = true;
                }
            }
            St::Armed(base) => {
                mask[i] = true;
                if depth > base {
                    st = St::In(base);
                }
            }
            St::In(base) => {
                if depth > base {
                    mask[i] = true;
                } else {
                    st = St::Out;
                    if attr_line[i] {
                        st = St::Armed(depth);
                        mask[i] = true;
                    }
                }
            }
        }
    }
    mask
}

/// A classified file inside a workspace model.
#[derive(Debug)]
pub struct WFile {
    /// Crate / target-kind classification.
    pub ctx: FileCtx,
    /// The lexed model.
    pub model: FileModel,
}

/// Every classified source file of a workspace (or an in-memory set).
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    /// Files in deterministic (sorted-path) order.
    pub files: Vec<WFile>,
}

impl WorkspaceModel {
    /// Load and lex every governed `.rs` file under `root`.
    pub fn load(root: &Path) -> Result<WorkspaceModel, String> {
        let files = collect_files(root, &|p| p.extension().is_some_and(|e| e == "rs"))
            .map_err(|e| format!("walking {}: {e}", root.display()))?;
        let mut out = WorkspaceModel::default();
        for rel in &files {
            let rel_s = rel_str(rel);
            let Some(ctx) = classify(&rel_s) else {
                continue;
            };
            let source =
                fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel_s}: {e}"))?;
            out.files.push(WFile {
                ctx,
                model: FileModel::parse(&rel_s, &source),
            });
        }
        Ok(out)
    }

    /// Build a model from in-memory `(path, source)` pairs (tests and
    /// fixture analysis).
    pub fn from_sources(files: &[(&str, &str)]) -> WorkspaceModel {
        let mut out = WorkspaceModel::default();
        for (rel, src) in files {
            let Some(ctx) = classify(rel) else { continue };
            out.files.push(WFile {
                ctx,
                model: FileModel::parse(rel, src),
            });
        }
        out
    }
}

/// A function item (free function or method) with its body token range.
#[derive(Debug)]
pub struct FnItem {
    /// Owning crate.
    pub krate: String,
    /// Bare function name (call-edge key).
    pub name: String,
    /// Index into `WorkspaceModel::files`.
    pub file: usize,
    /// Token index range of the body: `(open_brace, close_brace)`,
    /// inclusive of both delimiter tokens.
    pub body: (usize, usize),
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Enclosing `impl` type, when the item is a method.
    pub self_type: Option<String>,
    /// Does the header take `self` in any form (so `.name(` can call it)?
    pub takes_self: bool,
}

/// Extract every function item in the workspace.
pub fn fn_items(w: &WorkspaceModel) -> Vec<FnItem> {
    let mut out = Vec::new();
    for (fi, wf) in w.files.iter().enumerate() {
        let toks = &wf.model.toks;
        // Track enclosing `impl` blocks: (brace depth inside, type name).
        let mut impls: Vec<(u32, String)> = Vec::new();
        let mut i = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind == TokKind::Ident && t.text == "impl" {
                if let Some((name, open)) = impl_header(toks, i) {
                    impls.push((toks[open].depth + 1, name));
                    i = open + 1;
                    continue;
                }
            }
            if t.kind == TokKind::Close && t.text == "}" {
                impls.retain(|(d, _)| *d <= t.depth);
            }
            if t.is_ident("fn") {
                if let Some(name_tok) = toks.get(i + 1) {
                    if name_tok.kind == TokKind::Ident {
                        if let Some((open, close)) = fn_body(toks, i + 2, t.nest) {
                            out.push(FnItem {
                                krate: wf.ctx.crate_name.clone(),
                                name: name_tok.text.clone(),
                                file: fi,
                                body: (open, close),
                                line: t.line,
                                // A fn nested in a method body is a free fn.
                                self_type: impls
                                    .last()
                                    .filter(|(d, _)| *d == t.depth)
                                    .map(|(_, n)| n.clone()),
                                takes_self: takes_self(toks, i + 1),
                            });
                            // Nested fns inside the body are still found:
                            // continue scanning from just after the header.
                            i += 2;
                            continue;
                        }
                    }
                }
            }
            i += 1;
        }
    }
    out
}

/// Index just past a generic parameter list opening at `j` (`j` itself
/// when there is none).
fn skip_generics(toks: &[Tok], mut j: usize) -> usize {
    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
        let mut angle = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                "<<" => angle += 2,
                ">" => angle -= 1,
                ">>" => angle -= 2,
                _ => {}
            }
            j += 1;
            if angle <= 0 {
                break;
            }
        }
    }
    j
}

/// Does the function whose name token sits at `name_at` take `self`
/// (`self`, `mut self`, `&self`, `&'a mut self`, ...)?
fn takes_self(toks: &[Tok], name_at: usize) -> bool {
    let j = skip_generics(toks, name_at + 1);
    if toks.get(j).is_none_or(|t| !t.is_punct("(")) {
        return false;
    }
    toks[j + 1..]
        .iter()
        .find(|t| !(t.is_punct("&") || t.is_ident("mut") || t.kind == TokKind::Lifetime))
        .is_some_and(|t| t.is_ident("self"))
}

/// Parse an `impl` header starting at token `at` (the `impl` ident).
/// Returns `(type_name, index_of_open_brace)`.
fn impl_header(toks: &[Tok], at: usize) -> Option<(String, usize)> {
    let mut idents: Vec<&str> = Vec::new();
    let mut after_for: Option<&str> = None;
    let mut saw_for = false;
    // Skip the generic parameter list (`impl<T: Bound> …`) so `T`
    // is not mistaken for the self type.
    let mut j = skip_generics(toks, at + 1);
    while j < toks.len() {
        let t = &toks[j];
        match t.kind {
            TokKind::Open if t.text == "{" => {
                let name = after_for.or(idents.first().copied())?;
                return Some((name.to_string(), j));
            }
            TokKind::Ident => {
                if t.text == "for" {
                    saw_for = true;
                } else if saw_for && after_for.is_none() {
                    after_for = Some(&t.text);
                } else {
                    idents.push(&t.text);
                }
            }
            TokKind::Punct if t.text == ";" => return None, // `impl Trait;`? bail
            _ => {}
        }
        j += 1;
    }
    None
}

/// Find the body braces of a `fn` whose parameter list starts at or
/// after `at`; `nest0` is the nesting level of the `fn` keyword.
/// Returns `None` for bodyless declarations (`fn f();` in traits).
fn fn_body(toks: &[Tok], at: usize, nest0: u32) -> Option<(usize, usize)> {
    let mut j = at;
    while j < toks.len() {
        let t = &toks[j];
        if t.nest == nest0 {
            if t.kind == TokKind::Open && t.text == "{" {
                // Matching close: first `}` back at nest0.
                let mut k = j + 1;
                while k < toks.len() {
                    let c = &toks[k];
                    if c.kind == TokKind::Close && c.text == "}" && c.nest == nest0 {
                        return Some((j, k));
                    }
                    k += 1;
                }
                return Some((j, toks.len() - 1));
            }
            if t.is_punct(";") {
                return None;
            }
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mask_covers_gated_region() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn f() { x(); }\n}\nfn after() {}\n";
        let m = FileModel::parse("crates/mplite/src/x.rs", src);
        assert!(!m.masked(1));
        assert!(m.masked(2));
        assert!(m.masked(3));
        assert!(m.masked(4));
        assert!(m.masked(5));
        assert!(!m.masked(6));
    }

    #[test]
    fn fn_items_capture_methods_and_free_fns() {
        let w = WorkspaceModel::from_sources(&[(
            "crates/mplite/src/x.rs",
            "impl<T> Engine<T> {\n    fn deliver(&self) { fn inner() {} let g = self.inner.lock(); }\n}\n\
             impl fmt::Display for Diag {\n    fn fmt(&self) {}\n}\n\
             fn free(x: u32) -> u32 { x }\n\
             trait T { fn decl(&self); }\n",
        )]);
        let items = fn_items(&w);
        let names: Vec<(&str, Option<&str>)> = items
            .iter()
            .map(|f| (f.name.as_str(), f.self_type.as_deref()))
            .collect();
        assert_eq!(
            names,
            [
                ("deliver", Some("Engine")),
                ("inner", None),
                ("fmt", Some("Diag")),
                ("free", None),
            ]
        );
    }
}
