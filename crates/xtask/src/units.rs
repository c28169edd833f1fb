//! Units hygiene: ban raw time/byte conversion arithmetic outside
//! `simcore::{time, units}`.
//!
//! The paper's throughput curves are Mbps-vs-bytes on log axes; a
//! single mis-scaled conversion (`* 1e6` where `/ 8.0 * 1e6` was meant)
//! shifts a curve by orders of magnitude without failing any structural
//! test. Two checks:
//!
//! * **magic conversion constants** — a numeric literal from the
//!   known conversion family (`1_000_000`, `1e9`, `8.0`, `125_000.0`,
//!   …) directly multiplied or divided in library code. Conversions
//!   must go through `SimTime`/`SimDuration` or the
//!   `simcore::units` helper family, which carry the factor exactly
//!   once, in one audited file;
//! * **raw unit casts** — an `as u64` / `as f64` in a statement mixing
//!   a time-suffixed identifier (`*_us`, `*_ns`, `*_s`) with a rate
//!   identifier (`*rate*`, `*bps*`). Statements already routed through
//!   a blessed helper (`SimDuration::for_bytes`, `bytes_at_rate`, …)
//!   are exempt.
//!
//! Scope: library code of every crate except `xtask` (the analyzer
//! itself) and the two files that *implement* the conversions,
//! `crates/simcore/src/time.rs` and `crates/simcore/src/units.rs`.

use crate::context::FileCtx;
use crate::lex::TokKind;
use crate::model::FileModel;
use crate::rules::RawFinding;

/// Files allowed to spell conversion factors: the unit system itself.
const EXEMPT_FILES: &[&str] = &["crates/simcore/src/time.rs", "crates/simcore/src/units.rs"];

/// Integer conversion factors (decimal digits, underscores stripped).
const MAGIC_INTS: &[&str] = &["1000000", "1000000000", "125000", "125000000"];

/// Float conversion factors.
const MAGIC_FLOATS: &[f64] = &[
    8.0,
    1e3,
    1e6,
    1e9,
    1e-3,
    1e-6,
    1e-9,
    125_000.0,
    125_000_000.0,
];

/// Helpers that mark a statement as already unit-safe.
const BLESSED: &[&str] = &[
    "SimDuration",
    "SimTime",
    "for_bytes",
    "bytes_at_rate",
    "bus_bytes_per_sec",
    "from_micros_f64",
    "from_secs_f64",
    "as_micros_f64",
    "as_secs_f64",
    "mbps_to_bytes_per_sec",
    "bytes_per_sec_to_mbps",
    "bytes_per_sec_to_mbytes",
    "gbps_to_bytes_per_sec",
    "mbytes_to_bytes_per_sec",
    "throughput_mbps",
    "secs_to_us",
    "secs_to_ms",
    "us_to_secs",
    "ns_to_secs",
    "ns_to_us",
    "ns_to_ms",
];

/// Does the units pass govern this file?
fn in_scope(model: &FileModel, ctx: &FileCtx) -> bool {
    ctx.lib && ctx.crate_name != "xtask" && !EXEMPT_FILES.contains(&model.rel.as_str())
}

/// Run the units pass over one file.
pub fn units_findings(model: &FileModel, ctx: &FileCtx) -> Vec<RawFinding> {
    let mut findings: Vec<RawFinding> = Vec::new();
    if !in_scope(model, ctx) {
        return findings;
    }
    let toks = &model.toks;
    let mut push = |line: u32, message: String| {
        if !findings
            .iter()
            .any(|f| f.line == line && f.message == message)
        {
            findings.push(RawFinding {
                line,
                rule: "units",
                message,
            });
        }
    };

    // Statement boundaries: `;` and braces.
    let mut stmt_start = 0usize;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.is_punct(";") || t.text == "{" || t.text == "}" {
            stmt_start = i + 1;
            continue;
        }
        if model.masked(t.line) {
            continue;
        }

        if t.kind == TokKind::Num && is_magic(&t.text) {
            let mul_prev = i > 0 && (toks[i - 1].is_punct("*") || toks[i - 1].is_punct("/"));
            let mul_next = toks
                .get(i + 1)
                .is_some_and(|n| n.is_punct("*") || n.is_punct("/"));
            if mul_prev || mul_next {
                push(
                    t.line,
                    format!(
                        "magic unit-conversion constant `{}` in arithmetic; use \
                         simcore::units / SimDuration helpers",
                        t.text
                    ),
                );
            }
        }

        if t.is_ident("as")
            && toks
                .get(i + 1)
                .is_some_and(|n| n.is_ident("u64") || n.is_ident("f64"))
        {
            let stmt_end = (i..toks.len())
                .find(|&j| toks[j].is_punct(";") || toks[j].text == "{" || toks[j].text == "}")
                .unwrap_or(toks.len());
            let stmt = &toks[stmt_start.min(i)..stmt_end];
            let idents = || {
                stmt.iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.as_str())
            };
            let has_time = idents().any(is_time_ident);
            let has_rate = idents().any(is_rate_ident);
            let blessed = idents().any(|id| BLESSED.contains(&id));
            if has_time && has_rate && !blessed {
                push(
                    t.line,
                    "raw unit cast in time/rate arithmetic; use SimDuration::for_bytes / \
                     simcore::units helpers"
                        .to_string(),
                );
            }
        }
    }
    findings
}

/// Is this literal one of the known conversion factors?
fn is_magic(text: &str) -> bool {
    let mut lit = text.replace('_', "");
    for suffix in [
        "u64", "u32", "u128", "usize", "u16", "u8", "i64", "i32", "i128", "isize", "i16", "i8",
        "f64", "f32",
    ] {
        if let Some(stripped) = lit.strip_suffix(suffix) {
            lit = stripped.to_string();
            break;
        }
    }
    if lit.contains('.') || lit.contains('e') || lit.contains('E') {
        lit.parse::<f64>().is_ok_and(|v| MAGIC_FLOATS.contains(&v))
    } else {
        MAGIC_INTS.contains(&lit.as_str())
    }
}

/// A time-quantity identifier by suffix convention.
fn is_time_ident(id: &str) -> bool {
    id.ends_with("_us")
        || id.ends_with("_ns")
        || id.ends_with("_ms")
        || id.ends_with("_s")
        || id.ends_with("_secs")
        || matches!(id, "us" | "ns" | "ms" | "secs" | "seconds")
}

/// A rate-quantity identifier by substring convention.
fn is_rate_ident(id: &str) -> bool {
    let l = id.to_ascii_lowercase();
    l.contains("rate") || l.contains("bps") || l.contains("bytes_per_sec")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::classify;

    fn check(path: &str, src: &str) -> Vec<RawFinding> {
        let ctx = classify(path).expect("classifiable");
        units_findings(&FileModel::parse(path, src), &ctx)
    }

    #[test]
    fn magic_constants_adjacent_to_mul_div_fire() {
        let f = check(
            "crates/hwmodel/src/x.rs",
            "pub fn bps(width: u32, mhz: f64) -> f64 {\n    f64::from(width) / 8.0 * mhz * 1e6\n}\n",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("`8.0`"));
        assert!(f[1].message.contains("`1e6`"));
    }

    #[test]
    fn non_multiplicative_positions_are_clean() {
        // Comparison, tuple, and argument positions are not conversions.
        let f = check(
            "crates/faultlab/src/x.rs",
            "fn f(n: u64) -> (u64, f64) {\n    if n >= 1_000_000 { (n, 1e6) } else { (n, 1e3) }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn raw_cast_mixing_time_and_rate_fires() {
        let f = check(
            "crates/protosim/src/x.rs",
            "fn f(slow_us: f64, rate: f64) -> u64 {\n    (slow_us * rate) as u64\n}\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("raw unit cast"));
    }

    #[test]
    fn blessed_helper_exempts_cast() {
        let f = check(
            "crates/protosim/src/x.rs",
            "fn f(slow_us: f64, rate: f64) -> u64 {\n    \
             units::bytes_at_rate(rate, SimDuration::from_micros_f64(slow_us))\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn tests_and_unit_system_files_are_exempt() {
        let src = "fn f(x: f64) -> f64 { x * 1e6 }\n";
        assert!(check("crates/simcore/src/units.rs", src).is_empty());
        assert!(check("crates/simcore/src/time.rs", src).is_empty());
        assert!(check("crates/hwmodel/tests/t.rs", src).is_empty());
        let masked = "#[cfg(test)]\nmod tests {\n    fn f(x: f64) -> f64 { x * 1e6 }\n}\n";
        assert!(check("crates/hwmodel/src/x.rs", masked).is_empty());
    }

    #[test]
    fn underscored_and_suffixed_literals_normalize() {
        let f = check(
            "crates/mplite/src/x.rs",
            "fn f(x: u64) -> u64 { x * 1_000_000u64 }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`1_000_000u64`"));
    }
}
