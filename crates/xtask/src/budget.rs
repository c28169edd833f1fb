//! The burn-down budget file (`lint-budget.toml`).
//!
//! Budget entries cap the number of *un-annotated* findings of the
//! budgeted rules (`rules::BUDGETED_RULES`: `units`, `hot-cost`) per
//! `(crate, rule)`. The analyzer enforces a ratchet: a count above its
//! budget is a violation, and a count *below* its budget is also an
//! error telling you to lower the number — so the checked-in budget can
//! only go down over time.
//!
//! Format (a deliberately tiny TOML subset — `#` comments and
//! `"crate/rule" = N` pairs):
//!
//! ```toml
//! # xtask analyze burn-down budget
//! "mpsim/hot-cost" = 28
//! "hwmodel/units" = 0
//! ```

use std::collections::BTreeMap;

/// Parsed budget: `(crate, rule) -> allowed un-annotated count`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Budget {
    entries: BTreeMap<(String, String), usize>,
}

impl Budget {
    /// Parse the budget file text. Unknown or malformed lines are
    /// errors — the budget is part of the gate.
    pub fn parse(text: &str) -> Result<Budget, String> {
        let mut entries = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `\"crate/rule\" = N`", i + 1))?;
            let key = key.trim().trim_matches('"');
            let (krate, rule) = key
                .split_once('/')
                .ok_or_else(|| format!("line {}: key must be crate/rule", i + 1))?;
            let n: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("line {}: value must be a count", i + 1))?;
            if entries
                .insert((krate.to_string(), rule.to_string()), n)
                .is_some()
            {
                return Err(format!("line {}: duplicate key {key}", i + 1));
            }
        }
        Ok(Budget { entries })
    }

    /// Allowed count for `(crate, rule)` (0 when absent).
    pub fn allowed(&self, krate: &str, rule: &str) -> usize {
        self.entries
            .get(&(krate.to_string(), rule.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// All keys with nonzero budgets (for staleness checking).
    pub fn keys(&self) -> impl Iterator<Item = (&str, &str, usize)> {
        self.entries
            .iter()
            .map(|((k, r), &n)| (k.as_str(), r.as_str(), n))
    }

    /// Render counts as a fresh budget file.
    pub fn render(counts: &BTreeMap<(String, String), usize>) -> String {
        let mut out = String::from(
            "# xtask analyze burn-down budget: un-annotated findings of the budgeted\n\
             # rules per crate/rule. The analyzer fails if a count rises above its\n\
             # entry AND if it falls below (ratchet) — lower the number as you clean up.\n\
             # Regenerate with: cargo run -p xtask -- analyze --write-budget\n",
        );
        for ((krate, rule), n) in counts {
            if *n > 0 {
                out.push_str(&format!("\"{krate}/{rule}\" = {n}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_queries() {
        let b = Budget::parse("# c\n\"netpipe/unwrap\" = 12\n\"protosim/expect\" = 3\n")
            .expect("valid budget");
        assert_eq!(b.allowed("netpipe", "unwrap"), 12);
        assert_eq!(b.allowed("protosim", "expect"), 3);
        assert_eq!(b.allowed("mplite", "unwrap"), 0);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Budget::parse("nonsense\n").is_err());
        assert!(Budget::parse("\"a/b\" = x\n").is_err());
        assert!(Budget::parse("\"nokey\" = 3\n").is_err());
        assert!(Budget::parse("\"a/b\" = 1\n\"a/b\" = 2\n").is_err());
    }

    #[test]
    fn render_round_trips() {
        let mut counts = BTreeMap::new();
        counts.insert(("netpipe".to_string(), "unwrap".to_string()), 7usize);
        counts.insert(("mplite".to_string(), "unwrap".to_string()), 0usize);
        let text = Budget::render(&counts);
        let b = Budget::parse(&text).expect("rendered budget parses");
        assert_eq!(b.allowed("netpipe", "unwrap"), 7);
        // Zero entries are omitted.
        assert!(!text.contains("mplite"));
    }
}
