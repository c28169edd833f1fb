//! Cross-file protocol conformance analysis.
//!
//! `protospec::protocol!` invocations are the machine-readable protocol
//! specifications of record (DESIGN "Protocol specifications &
//! conformance"). This pass re-parses every invocation straight from
//! the token stream — same grammar the macro accepts — and checks two
//! layers against it:
//!
//! * **spec level** — the declared table must be coherent on its own:
//!   every transition endpoint and terminal is a declared state
//!   (`protocol-undeclared`), every state is reachable from the initial
//!   state (`protocol-unreachable`), every reachable state can still
//!   reach a terminal state (`protocol-terminal`), and a declared
//!   `dual` partner exists with exactly mirrored send/receive message
//!   sets (`protocol-duality`);
//! * **code level** — a `match` arm over a protocol's runtime enum may
//!   only step to states the spec connects to the matched state
//!   (`protocol-transition`), and may only name declared variants
//!   (`protocol-undeclared`).
//!
//! The code-level check is deliberately syntactic: any
//! `Enum::Variant` mention in an arm body is treated as a potential
//! next state (comparisons via `==`/`!=` are exempt, `X => X`
//! self-steps are always allowed). That over-approximates — a nested
//! `match` over the *same* enum inside an arm body attributes its
//! states to the outer arm — but the false positives are exactly the
//! shapes worth an explicit `lint:allow` note naming this rule.

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::{Tok, TokKind};
use crate::model::WorkspaceModel;
use crate::rules::RawFinding;

/// One declared transition.
struct PTransition {
    from: String,
    event: String,
    dir: char,
    to: String,
    line: u32,
}

/// A protocol spec parsed back out of a `protocol!` invocation.
struct PSpec {
    /// Spec name, `namespace.role`.
    name: String,
    /// The generated runtime enum's name.
    enum_name: String,
    /// Declared dual spec name, if any.
    dual: Option<String>,
    /// Declared states, each with the line it was declared on.
    states: Vec<(String, u32)>,
    /// Declared terminal states.
    terminal: Vec<(String, u32)>,
    /// Declared transitions.
    transitions: Vec<PTransition>,
    /// Index into `WorkspaceModel::files`.
    file: usize,
    /// Line of the invocation (the enum name token).
    line: u32,
}

impl PSpec {
    fn has_state(&self, s: &str) -> bool {
        self.states.iter().any(|(n, _)| n == s)
    }

    /// Is there any edge `from -> to`, regardless of event?
    fn has_edge(&self, from: &str, to: &str) -> bool {
        self.transitions
            .iter()
            .any(|t| t.from == from && t.to == to)
    }

    /// Event names flowing in one direction (`'!'` sends, `'?'` recvs).
    fn events(&self, dir: char) -> BTreeSet<&str> {
        self.transitions
            .iter()
            .filter(|t| t.dir == dir)
            .map(|t| t.event.as_str())
            .collect()
    }
}

/// Run the protocol conformance pass; findings are keyed by file index
/// for the per-file annotation resolution.
pub fn protocol_findings(w: &WorkspaceModel) -> Vec<(usize, RawFinding)> {
    let specs = parse_specs(w);
    let by_name: BTreeMap<&str, &PSpec> = specs.iter().map(|s| (s.name.as_str(), s)).collect();
    let mut by_enum: BTreeMap<&str, &PSpec> = BTreeMap::new();
    for s in &specs {
        // First declaration wins on an enum-name collision; the
        // duplicate will fail to compile anyway if in one crate.
        by_enum.entry(s.enum_name.as_str()).or_insert(s);
    }

    let mut out: Vec<(usize, RawFinding)> = Vec::new();
    for s in &specs {
        for f in spec_findings(s, &by_name) {
            out.push((s.file, f));
        }
    }
    code_findings(w, &by_enum, &mut out);
    out
}

/// Every `protocol!` machine the conformance pass discovered, as sorted
/// `namespace.role` names — the report inventory CI asserts against so
/// a machine silently dropping out of the pass (file moved out of the
/// walk, macro renamed) fails loudly rather than un-checking itself.
pub fn protocol_inventory(w: &WorkspaceModel) -> Vec<String> {
    let mut names: Vec<String> = parse_specs(w).into_iter().map(|s| s.name).collect();
    names.sort();
    names.dedup();
    names
}

// --- spec extraction -------------------------------------------------

/// Parse every unmasked `protocol! { … }` invocation in the workspace.
fn parse_specs(w: &WorkspaceModel) -> Vec<PSpec> {
    let mut specs = Vec::new();
    for (fi, wf) in w.files.iter().enumerate() {
        let toks = &wf.model.toks;
        let mut i = 0usize;
        while i + 2 < toks.len() {
            if toks[i].is_ident("protocol")
                && toks[i + 1].is_punct("!")
                && toks[i + 2].is_punct("{")
                && !wf.model.masked(toks[i].line)
            {
                if let Some((spec, close)) = parse_one(toks, i + 2, fi) {
                    specs.push(spec);
                    i = close + 1;
                    continue;
                }
            }
            i += 1;
        }
    }
    specs
}

/// Token cursor over one invocation body.
struct Cur<'a> {
    toks: &'a [Tok],
    j: usize,
    end: usize,
}

impl<'a> Cur<'a> {
    fn peek(&self) -> Option<&'a Tok> {
        (self.j < self.end).then(|| &self.toks[self.j])
    }

    fn ident(&mut self) -> Option<&'a Tok> {
        let t = self.peek().filter(|t| t.kind == TokKind::Ident)?;
        self.j += 1;
        Some(t)
    }

    fn punct(&mut self, s: &str) -> Option<()> {
        self.peek().filter(|t| t.is_punct(s))?;
        self.j += 1;
        Some(())
    }

    fn eat_punct(&mut self, s: &str) -> bool {
        self.punct(s).is_some()
    }

    /// `ns . role` → `"ns.role"`.
    fn spec_name(&mut self) -> Option<String> {
        let ns = self.ident()?.text.clone();
        self.punct(".")?;
        let role = self.ident()?;
        Some(format!("{ns}.{}", role.text))
    }

    /// A comma-separated ident list terminated by `;`.
    fn ident_list(&mut self, keyword: &str) -> Option<Vec<(String, u32)>> {
        self.peek().filter(|t| t.is_ident(keyword))?;
        self.j += 1;
        let mut out = Vec::new();
        loop {
            let t = self.ident()?;
            out.push((t.text.clone(), t.line));
            if self.eat_punct(",") {
                continue;
            }
            self.punct(";")?;
            return Some(out);
        }
    }
}

/// Parse one invocation whose `{` is at `open_idx`. Returns the spec
/// and the index of the matching `}`. A body that does not parse as the
/// `protocol!` grammar is skipped entirely — it would not compile, or
/// it is some other macro that happens to share the name.
fn parse_one(toks: &[Tok], open_idx: usize, fi: usize) -> Option<(PSpec, usize)> {
    let open_nest = toks[open_idx].nest;
    let close_idx = (open_idx + 1..toks.len()).find(|&k| {
        toks[k].kind == TokKind::Close && toks[k].text == "}" && toks[k].nest == open_nest
    })?;
    let mut c = Cur {
        toks,
        j: open_idx + 1,
        end: close_idx,
    };

    // Attributes pass through the macro; doc comments never reach the
    // token stream at all.
    while c.peek().is_some_and(|t| t.is_punct("#")) {
        c.j += 1;
        let b = c
            .peek()
            .filter(|t| t.kind == TokKind::Open && t.text == "[")?;
        let bn = b.nest;
        c.j = (c.j + 1..c.end).find(|&k| {
            toks[k].kind == TokKind::Close && toks[k].text == "]" && toks[k].nest == bn
        })? + 1;
    }
    if c.peek().is_some_and(|t| t.is_ident("pub")) {
        c.j += 1;
        if let Some(p) = c
            .peek()
            .filter(|t| t.kind == TokKind::Open && t.text == "(")
        {
            let pn = p.nest;
            c.j = (c.j + 1..c.end).find(|&k| {
                toks[k].kind == TokKind::Close && toks[k].text == ")" && toks[k].nest == pn
            })? + 1;
        }
    }

    let head = c.ident()?;
    let (enum_name, line) = (head.text.clone(), head.line);
    c.peek().filter(|t| t.is_ident("of"))?;
    c.j += 1;
    let name = c.spec_name()?;
    let dual = if c.peek().is_some_and(|t| t.is_ident("dual")) {
        c.j += 1;
        Some(c.spec_name()?)
    } else {
        None
    };
    c.punct(";")?;

    let states = c.ident_list("states")?;
    let terminal = c.ident_list("terminal")?;

    let mut transitions = Vec::new();
    while c.j < c.end {
        let from = c.ident()?;
        c.punct("-")?;
        c.punct("-")?;
        let event = c.ident()?;
        let dir = c
            .peek()
            .filter(|t| matches!(t.text.as_str(), "!" | "?" | "~"))?;
        let dir = dir.text.chars().next()?;
        c.j += 1;
        c.punct("-")?;
        c.punct("->")?;
        let to = c.ident()?;
        transitions.push(PTransition {
            from: from.text.clone(),
            event: event.text.clone(),
            dir,
            to: to.text.clone(),
            line: from.line,
        });
        c.punct(";")?;
    }

    Some((
        PSpec {
            name,
            enum_name,
            dual,
            states,
            terminal,
            transitions,
            file: fi,
            line,
        },
        close_idx,
    ))
}

// --- spec-level checks -----------------------------------------------

fn spec_findings(s: &PSpec, by_name: &BTreeMap<&str, &PSpec>) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let declared: BTreeSet<&str> = s.states.iter().map(|(n, _)| n.as_str()).collect();

    for (t, line) in &s.terminal {
        if !declared.contains(t.as_str()) {
            out.push(RawFinding {
                line: *line,
                rule: "protocol-undeclared",
                message: format!("terminal state `{t}` is not a declared state of {}", s.name),
            });
        }
    }
    for tr in &s.transitions {
        for endpoint in [&tr.from, &tr.to] {
            if !declared.contains(endpoint.as_str()) {
                out.push(RawFinding {
                    line: tr.line,
                    rule: "protocol-undeclared",
                    message: format!(
                        "transition references undeclared state `{endpoint}` in {}",
                        s.name
                    ),
                });
            }
        }
    }

    // Graph checks run over the well-declared part of the table.
    let edges: Vec<(&str, &str)> = s
        .transitions
        .iter()
        .filter(|t| declared.contains(t.from.as_str()) && declared.contains(t.to.as_str()))
        .map(|t| (t.from.as_str(), t.to.as_str()))
        .collect();
    let initial = s.states.first().map(|(n, _)| n.as_str());
    let fwd = flood(initial.into_iter().collect(), &edges, false);
    for (st, line) in &s.states {
        if !fwd.contains(st.as_str()) {
            out.push(RawFinding {
                line: *line,
                rule: "protocol-unreachable",
                message: format!(
                    "state `{st}` of {} is unreachable from the initial state `{}`",
                    s.name,
                    initial.unwrap_or("?")
                ),
            });
        }
    }

    let term: BTreeSet<&str> = s
        .terminal
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| declared.contains(n))
        .collect();
    if term.is_empty() {
        out.push(RawFinding {
            line: s.line,
            rule: "protocol-terminal",
            message: format!("protocol {} declares no valid terminal state", s.name),
        });
    } else {
        let rev = flood(term, &edges, true);
        for (st, line) in &s.states {
            if fwd.contains(st.as_str()) && !rev.contains(st.as_str()) {
                out.push(RawFinding {
                    line: *line,
                    rule: "protocol-terminal",
                    message: format!(
                        "state `{st}` of {} has no path to a terminal state \
                         (live-lock trap)",
                        s.name
                    ),
                });
            }
        }
    }

    if let Some(d) = &s.dual {
        match by_name.get(d.as_str()) {
            None => out.push(RawFinding {
                line: s.line,
                rule: "protocol-duality",
                message: format!(
                    "{} declares dual `{d}`, which is not defined anywhere in the workspace",
                    s.name
                ),
            }),
            Some(peer) => {
                for e in s.events('!').difference(&peer.events('?')) {
                    out.push(RawFinding {
                        line: s.line,
                        rule: "protocol-duality",
                        message: format!("{} sends `{e}` but dual {d} never receives it", s.name),
                    });
                }
                for e in s.events('?').difference(&peer.events('!')) {
                    out.push(RawFinding {
                        line: s.line,
                        rule: "protocol-duality",
                        message: format!("{} receives `{e}` but dual {d} never sends it", s.name),
                    });
                }
            }
        }
    }
    out
}

/// Forward (or reverse) flood fill over the edge list.
fn flood<'a>(
    seed: BTreeSet<&'a str>,
    edges: &[(&'a str, &'a str)],
    rev: bool,
) -> BTreeSet<&'a str> {
    let mut seen = seed;
    loop {
        let mut grew = false;
        for &(a, b) in edges {
            let (src, dst) = if rev { (b, a) } else { (a, b) };
            if seen.contains(src) && seen.insert(dst) {
                grew = true;
            }
        }
        if !grew {
            return seen;
        }
    }
}

// --- code-level checks -----------------------------------------------

/// A variant name the spec could plausibly declare: CamelCase, so
/// associated consts (`SPEC`) and functions (`initial`) never match.
fn looks_like_variant(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_uppercase()) && s.chars().any(|c| c.is_ascii_lowercase())
}

fn code_findings(
    w: &WorkspaceModel,
    by_enum: &BTreeMap<&str, &PSpec>,
    out: &mut Vec<(usize, RawFinding)>,
) {
    for (fi, wf) in w.files.iter().enumerate() {
        let toks = &wf.model.toks;

        // Undeclared variant references, anywhere in library code.
        for i in 0..toks.len() {
            let Some(spec) = variant_ref(toks, i, by_enum) else {
                continue;
            };
            let v = &toks[i + 2].text;
            if !spec.has_state(v) && !wf.model.masked(toks[i].line) {
                out.push((
                    fi,
                    RawFinding {
                        line: toks[i + 2].line,
                        rule: "protocol-undeclared",
                        message: format!(
                            "`{}::{v}` names no declared state of {}",
                            spec.enum_name, spec.name
                        ),
                    },
                ));
            }
        }

        // Match arms over a protocol enum.
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].is_ident("match") {
                if let Some((open, close)) = match_body(toks, i) {
                    check_match(toks, open, close, by_enum, fi, &wf.model, out);
                }
            }
            i += 1;
        }
    }
}

/// Is `toks[i..]` a `Enum::Variant`-shaped reference to a registered
/// protocol enum? Returns the spec if so.
fn variant_ref<'a>(
    toks: &[Tok],
    i: usize,
    by_enum: &BTreeMap<&str, &'a PSpec>,
) -> Option<&'a PSpec> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let spec = by_enum.get(t.text.as_str())?;
    // `path::Enum::Variant` still lands here via the `Enum` token; a
    // *preceding* `::` only changes the prefix, not the reference.
    (toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
        && toks
            .get(i + 2)
            .is_some_and(|n| n.kind == TokKind::Ident && looks_like_variant(&n.text)))
    .then_some(*spec)
}

/// Locate the body braces of the `match` whose keyword is at `at`.
fn match_body(toks: &[Tok], at: usize) -> Option<(usize, usize)> {
    let nest0 = toks[at].nest;
    let mut j = at + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.nest < nest0 || (t.nest == nest0 && t.is_punct(";")) {
            return None; // ran out of the expression
        }
        if t.nest == nest0 && t.kind == TokKind::Open && t.text == "{" {
            let close = (j + 1..toks.len()).find(|&k| {
                toks[k].kind == TokKind::Close && toks[k].text == "}" && toks[k].nest == nest0
            })?;
            return Some((j, close));
        }
        j += 1;
    }
    None
}

/// Check every arm of one match body against the spec of whichever
/// protocol enum its pattern names.
fn check_match(
    toks: &[Tok],
    open: usize,
    close: usize,
    by_enum: &BTreeMap<&str, &PSpec>,
    fi: usize,
    model: &crate::model::FileModel,
    out: &mut Vec<(usize, RawFinding)>,
) {
    let inner = toks[open].nest + 1;
    let mut k = open + 1;
    while k < close {
        // Pattern: up to the `=>` at arm level.
        let pat_start = k;
        while k < close && !(toks[k].is_punct("=>") && toks[k].nest == inner) {
            k += 1;
        }
        if k >= close {
            break;
        }
        let pat_end = k;
        k += 1;

        // Body: a `{ … }` block, or up to the `,` at arm level.
        let (body_start, body_end);
        if toks
            .get(k)
            .is_some_and(|t| t.kind == TokKind::Open && t.text == "{" && t.nest == inner)
        {
            body_start = k + 1;
            let mut m = k + 1;
            while m < close
                && !(toks[m].kind == TokKind::Close && toks[m].text == "}" && toks[m].nest == inner)
            {
                m += 1;
            }
            body_end = m;
            k = m + 1;
            if toks
                .get(k)
                .is_some_and(|t| t.is_punct(",") && t.nest == inner)
            {
                k += 1;
            }
        } else {
            body_start = k;
            let mut m = k;
            while m < close && !(toks[m].is_punct(",") && toks[m].nest == inner) {
                m += 1;
            }
            body_end = m;
            k = m + 1;
        }

        // From-states: every `Enum::Variant` in the pattern. The arm
        // belongs to whichever protocol enum it names (mixing two
        // protocol enums in one pattern is not a real shape).
        let mut spec: Option<&PSpec> = None;
        let mut froms: Vec<&str> = Vec::new();
        for i in pat_start..pat_end {
            if let Some(sp) = variant_ref(toks, i, by_enum) {
                let v = toks[i + 2].text.as_str();
                if spec.is_none() {
                    spec = Some(sp);
                }
                if spec.is_some_and(|s| std::ptr::eq(s, sp)) && sp.has_state(v) {
                    froms.push(v);
                }
            }
        }
        let Some(spec) = spec else { continue };
        if froms.is_empty() {
            continue;
        }

        // Every same-enum mention in the body is a potential next state.
        for i in body_start..body_end {
            let Some(sp) = variant_ref(toks, i, by_enum) else {
                continue;
            };
            if !std::ptr::eq(sp, spec) || model.masked(toks[i].line) {
                continue;
            }
            // Comparisons inspect the state, they do not step it.
            if i > 0 && matches!(toks[i - 1].text.as_str(), "==" | "!=") {
                continue;
            }
            let to = toks[i + 2].text.as_str();
            if !spec.has_state(to) {
                continue; // already reported as protocol-undeclared
            }
            for from in &froms {
                if *from != to && !spec.has_edge(from, to) {
                    out.push((
                        fi,
                        RawFinding {
                            line: toks[i + 2].line,
                            rule: "protocol-transition",
                            message: format!(
                                "match arm steps {} from `{from}` to `{to}`, but {} \
                                 declares no `{from} --…--> {to}` transition",
                                spec.enum_name, spec.name
                            ),
                        },
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::WorkspaceModel;

    const SPEC_SRC: &str = "protospec::protocol! {\n\
         pub Life of demo.actor;\n\
         states Alpha, Beta, Gamma;\n\
         terminal Gamma;\n\
         Alpha --go!--> Beta;\n\
         Beta --stop?--> Gamma;\n\
     }\n";

    fn run(files: &[(&str, &str)]) -> Vec<RawFinding> {
        let w = WorkspaceModel::from_sources(files);
        protocol_findings(&w).into_iter().map(|(_, f)| f).collect()
    }

    #[test]
    fn well_formed_spec_and_conformant_match_are_clean() {
        let code = "use x::Life;\n\
             fn step(l: Life) -> Life {\n\
                 match l {\n\
                     Life::Alpha => Life::Beta,\n\
                     Life::Beta => Life::Gamma,\n\
                     Life::Gamma => Life::Gamma,\n\
                 }\n\
             }\n";
        let f = run(&[
            ("crates/mplite/src/spec.rs", SPEC_SRC),
            ("crates/mplite/src/step.rs", code),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn undeclared_step_in_match_arm_trips() {
        let code = "fn bad(l: Life) -> Life {\n\
             match l {\n\
                 Life::Beta => Life::Alpha,\n\
                 other => other,\n\
             }\n\
         }\n";
        let f = run(&[
            ("crates/mplite/src/spec.rs", SPEC_SRC),
            ("crates/mplite/src/step.rs", code),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "protocol-transition");
        assert!(
            f[0].message.contains("`Beta` to `Alpha`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn multi_variant_pattern_requires_edges_from_every_state() {
        let code = "fn bad(l: Life) -> Life {\n\
             match l {\n\
                 Life::Alpha | Life::Gamma => Life::Beta,\n\
                 other => other,\n\
             }\n\
         }\n";
        let f = run(&[
            ("crates/mplite/src/spec.rs", SPEC_SRC),
            ("crates/mplite/src/step.rs", code),
        ]);
        // Alpha -> Beta is declared; Gamma -> Beta is not.
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("`Gamma` to `Beta`"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn comparisons_and_self_steps_are_exempt() {
        let code = "fn probe(l: Life) -> bool {\n\
             match l {\n\
                 Life::Beta => l == Life::Gamma || l != Life::Alpha,\n\
                 _ => false,\n\
             }\n\
         }\n";
        let f = run(&[
            ("crates/mplite/src/spec.rs", SPEC_SRC),
            ("crates/mplite/src/probe.rs", code),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn undeclared_variant_reference_trips() {
        let code = "fn z() -> Life { Life::Zombie }\n";
        let f = run(&[
            ("crates/mplite/src/spec.rs", SPEC_SRC),
            ("crates/mplite/src/z.rs", code),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "protocol-undeclared");
    }

    #[test]
    fn unreachable_and_livelock_states_trip() {
        let src = "protospec::protocol! {\n\
             pub Trap of demo.trap;\n\
             states Start, Spin, Orphan, Done;\n\
             terminal Done;\n\
             Start --spin~--> Spin;\n\
             Spin --again~--> Spin;\n\
             Start --finish~--> Done;\n\
         }\n";
        let f = run(&[("crates/mplite/src/spec.rs", src)]);
        let rules: Vec<&str> = f.iter().map(|x| x.rule).collect();
        assert!(rules.contains(&"protocol-unreachable"), "{f:?}"); // Orphan
        assert!(rules.contains(&"protocol-terminal"), "{f:?}"); // Spin
    }

    #[test]
    fn duality_mismatch_trips_and_mirrored_pair_is_clean() {
        let a = "protospec::protocol! {\n\
             pub Snd of pair.sender dual pair.receiver;\n\
             states Idle, Busy;\n\
             terminal Idle;\n\
             Idle --req!--> Busy;\n\
             Busy --ack?--> Idle;\n\
         }\n";
        let good = "protospec::protocol! {\n\
             pub Rcv of pair.receiver dual pair.sender;\n\
             states Idle, Busy;\n\
             terminal Idle;\n\
             Idle --req?--> Busy;\n\
             Busy --ack!--> Idle;\n\
         }\n";
        let clean = run(&[
            ("crates/mplite/src/a.rs", a),
            ("crates/mplite/src/b.rs", good),
        ]);
        assert!(clean.is_empty(), "{clean:?}");

        let bad = good.replace("Busy --ack!--> Idle;", "Busy --nack!--> Idle;");
        let f = run(&[
            ("crates/mplite/src/a.rs", a),
            ("crates/mplite/src/b.rs", &bad),
        ]);
        assert!(
            f.iter().filter(|x| x.rule == "protocol-duality").count() >= 2,
            "{f:?}"
        );
    }

    #[test]
    fn missing_dual_trips() {
        let a = "protospec::protocol! {\n\
             pub Snd of pair.sender dual pair.receiver;\n\
             states Idle;\n\
             terminal Idle;\n\
             Idle --req!--> Idle;\n\
         }\n";
        let f = run(&[("crates/mplite/src/a.rs", a)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "protocol-duality");
        assert!(f[0].message.contains("not defined"), "{}", f[0].message);
    }

    #[test]
    fn specs_in_test_code_are_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n    protospec::protocol! {\n\
                 pub T of t.t dual t.missing;\n\
                 states A1x;\n\
                 terminal A1x;\n\
                 A1x --e~--> A1x;\n\
             }\n}\n";
        let f = run(&[("crates/mplite/src/x.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn associated_items_do_not_look_like_variants() {
        let code = "fn f() { let s = Life::SPEC; let i = Life::initial(); }\n";
        let f = run(&[
            ("crates/mplite/src/spec.rs", SPEC_SRC),
            ("crates/mplite/src/f.rs", code),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }
}
