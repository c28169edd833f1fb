//! Seeded fuzzing of the `FaultPlan` grammar: valid clause strings,
//! their truncations, byte flips and repeats. `FaultPlan::parse` must
//! never panic, and every plan it accepts must survive `Display` →
//! `parse` unchanged, since a plan travels as text (`--faults PLAN`)
//! and must mean the same thing on both ends.

use faultlab::FaultPlan;
use simcore::SimRng;

/// Inputs that once broke the round trip, kept as regression seeds,
/// each with whether `parse` accepts it.
const REGRESSIONS: &[(&str, bool)] = &[
    // Real-mode knobs and a lossless plan's TCP knobs were not printed.
    ("deadline=250ms,retries=4,backoff=10ms", true),
    ("kill-listener,backoff=0.5ms,rto=0.5s", true),
    // A stall duration with a zero rate was not printed.
    ("stall=5ms@0", true),
    // A finite value whose unit scaling overflows to infinity parsed,
    // then printed as `infus`, which does not parse.
    ("jitter=1e303s", false),
    ("kill-rank=1@1e308ms", false),
];

fn pick<'a>(rng: &mut SimRng, xs: &[&'a str]) -> &'a str {
    xs[rng.next_below(xs.len() as u64) as usize]
}

/// A number the grammar may or may not accept: small and large
/// integers, decimals, exponents, signs and junk.
fn number(rng: &mut SimRng) -> String {
    match rng.next_below(8) {
        0 => rng.next_below(10).to_string(),
        1 => rng.next_below(1 << 20).to_string(),
        2 => rng.next_u64().to_string(),
        3 => format!("{:.3}", rng.next_f64()),
        4 => format!("{}", rng.next_f64()),
        5 => format!("{}e{}", rng.next_below(10), rng.next_below(320)),
        6 => format!("-{}", rng.next_below(100)),
        _ => pick(rng, &["", "nan", "inf", "1.", ".5", "0x10", "1_000"]).to_string(),
    }
}

fn duration(rng: &mut SimRng) -> String {
    format!("{}{}", number(rng), pick(rng, &["", "us", "ms", "s", "ns"]))
}

fn prob(rng: &mut SimRng) -> String {
    if rng.next_below(4) == 0 {
        number(rng)
    } else {
        format!("{}", rng.next_f64())
    }
}

fn ranks(rng: &mut SimRng) -> String {
    let n = 1 + rng.next_below(3);
    (0..n)
        .map(|_| rng.next_below(8).to_string())
        .collect::<Vec<_>>()
        .join("+")
}

/// One clause of the grammar, well-formed in shape; its values may
/// still be out of range.
fn clause(rng: &mut SimRng) -> String {
    let prob_key = ["loss", "dup", "reorder", "corrupt", "truncate"];
    let dur_key = ["jitter", "rto", "deadline", "backoff"];
    let int_key = ["retrans", "retries", "kill-after"];
    match rng.next_below(11) {
        0 => format!("seed={}", number(rng)),
        1 => format!("{}={}", pick(rng, &prob_key), prob(rng)),
        2 => format!("{}={}", pick(rng, &dur_key), duration(rng)),
        3 => format!("{}={}", pick(rng, &int_key), number(rng)),
        4 => format!("degrade={}..{}@{}", duration(rng), duration(rng), prob(rng)),
        5 => format!("kill-rank={}@{}", rng.next_below(16), duration(rng)),
        6 => "kill-listener".to_string(),
        7 => format!("stall={}@{}", duration(rng), prob(rng)),
        8 => format!(
            "partition={}|{}@{}..{}",
            ranks(rng),
            ranks(rng),
            duration(rng),
            duration(rng)
        ),
        9 => "reorder-frame".to_string(),
        _ => format!("reorder-frame={}", prob(rng)),
    }
}

/// A plan string: a few clauses, then maybe one mutation.
fn plan_text(rng: &mut SimRng) -> String {
    let n = rng.next_below(5);
    let mut bytes = (0..n)
        .map(|_| clause(rng))
        .collect::<Vec<_>>()
        .join(",")
        .into_bytes();
    match rng.next_below(6) {
        // Truncate anywhere.
        0 if !bytes.is_empty() => bytes.truncate(rng.next_below(bytes.len() as u64) as usize),
        // Flip one byte to a separator or any printable ASCII byte.
        1 if !bytes.is_empty() => {
            let at = rng.next_below(bytes.len() as u64) as usize;
            bytes[at] = b" ,=@.|+-"
                .get(rng.next_below(16) as usize)
                .copied()
                .unwrap_or(0x20 + rng.next_below(95) as u8);
        }
        // Repeat the whole string, or prepend one more clause.
        2 => bytes = [&bytes[..], b",", &bytes[..]].concat(),
        3 => bytes = [clause(rng).as_bytes(), b",", &bytes[..]].concat(),
        _ => {}
    }
    // Every byte above is ASCII, so this never replaces anything.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parse without panicking; an accepted plan must round-trip.
fn check(text: &str) -> bool {
    let parsed = std::panic::catch_unwind(|| FaultPlan::parse(text))
        .unwrap_or_else(|_| panic!("parse panicked on {text:?}"));
    let Ok(plan) = parsed else { return false };
    let shown = plan.to_string();
    match FaultPlan::parse(&shown) {
        Ok(again) => assert_eq!(plan, again, "{text:?} printed as {shown:?}"),
        Err(e) => panic!("{text:?} printed as {shown:?}, which does not parse: {e}"),
    }
    true
}

#[test]
fn regression_seeds_round_trip() {
    for &(text, accepted) in REGRESSIONS {
        assert_eq!(check(text), accepted, "{text:?}");
    }
}

#[test]
fn seeded_plans_never_panic_and_accepted_ones_round_trip() {
    for seed in [1, 2, 3] {
        let mut rng = SimRng::new(seed);
        let mut accepted = 0;
        for _ in 0..10_000 {
            if check(&plan_text(&mut rng)) {
                accepted += 1;
            }
        }
        // Both verdicts must be exercised, or the generator has drifted.
        assert!(
            (1_000..9_000).contains(&accepted),
            "seed {seed}: {accepted} of 10000 accepted"
        );
    }
}
