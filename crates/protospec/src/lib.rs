//! Session-typed protocol state machines.
//!
//! The repo's message-passing protocols (eager→rendezvous handshakes,
//! RTO/retransmit lifecycles, connection boot/steady/poisoned phases)
//! started life as informal state machines scattered across match arms.
//! This crate makes them explicit and machine-checkable, twice over:
//!
//! * **compile time** — the [`protocol!`] macro emits a *typestate* API:
//!   one zero-sized struct per state whose transition methods consume
//!   `self` and return the next state's type, so an illegal transition
//!   is a type error, not a 3 a.m. debugging session;
//! * **run/analyze time** — the same invocation emits a `const`
//!   [`ProtocolSpec`] transition table (states, events, send/recv
//!   direction, terminal states, dual role), queryable at runtime and
//!   re-parsed from source by `xtask analyze`'s `protocol-*` rules,
//!   which cross-check the *code* against the declared spec.
//!
//! The crate is std-only with zero dependencies, like the rest of the
//! workspace.
//!
//! # Declaring a protocol
//!
//! ```
//! mod sender {
//!     protospec::protocol! {
//!         /// Sender half of the eager→rendezvous handshake.
//!         pub RndvSendState of rendezvous.sender dual rendezvous.receiver;
//!         states Idle, AwaitCts, Streaming;
//!         terminal Idle;
//!         Idle --rts!--> AwaitCts;
//!         AwaitCts --cts?--> Streaming;
//!         Streaming --fin!--> Idle;
//!     }
//! }
//!
//! // Typestate: transitions consume `self`; out-of-order calls do not
//! // compile (`Idle.cts()` is not a method).
//! let s = sender::Idle;
//! let s = s.rts();
//! let _idle = s.cts().fin();
//!
//! // Runtime table: same machine, queryable.
//! let spec = sender::RndvSendState::spec();
//! assert_eq!(spec.step("Idle", "rts"), Some("AwaitCts"));
//! assert_eq!(spec.step("Idle", "cts"), None);
//! assert!(spec.check().is_empty());
//! ```
//!
//! Event names carry a polarity suffix: `!` sends, `?` receives, `~` is
//! an internal (τ) step. Two role machines declared `dual` of each
//! other must agree: every message one side sends, the other receives
//! (checked by [`ProtocolSpec::check_dual`] and, statically, by the
//! `protocol-duality` analyzer rule).

// Library-code rules (panic hygiene and no printing); see DESIGN.md §9.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

use std::collections::BTreeSet;
use std::fmt;

/// Polarity of a protocol event, from the session-types tradition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// The role emits a message (`event!`).
    Send,
    /// The role consumes a message (`event?`).
    Recv,
    /// Internal step, invisible to the peer (`event~`).
    Internal,
}

impl Dir {
    /// Suffix character used in the spec grammar.
    pub fn suffix(self) -> char {
        match self {
            Dir::Send => '!',
            Dir::Recv => '?',
            Dir::Internal => '~',
        }
    }
}

/// One edge of a protocol state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Source state name.
    pub from: &'static str,
    /// Event (message) name.
    pub event: &'static str,
    /// Send/recv polarity of the event.
    pub dir: Dir,
    /// Destination state name.
    pub to: &'static str,
}

/// A declared protocol role: the runtime-queryable transition table
/// emitted by [`protocol!`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// Dotted `namespace.role` name (`"rendezvous.sender"`).
    pub name: &'static str,
    /// Name of the peer role this machine must be dual to, if any.
    pub dual: Option<&'static str>,
    /// Declared states; the first is the initial state.
    pub states: &'static [&'static str],
    /// Quiescent states: the machine may legitimately rest here. A
    /// terminal state may still have outgoing edges (e.g. an `Idle`
    /// that both starts and ends every exchange).
    pub terminal: &'static [&'static str],
    /// The transition table.
    pub transitions: &'static [Transition],
}

impl ProtocolSpec {
    /// The initial state (first declared), or `None` for a stateless
    /// (malformed) spec.
    pub fn initial(&self) -> Option<&'static str> {
        self.states.first().copied()
    }

    /// Is `state` a declared state?
    pub fn has_state(&self, state: &str) -> bool {
        self.states.contains(&state)
    }

    /// Is `state` a declared terminal (quiescent) state?
    pub fn is_terminal(&self, state: &str) -> bool {
        self.terminal.contains(&state)
    }

    /// Destination of `event` out of `from`, or `None` when the spec
    /// declares no such edge.
    pub fn step(&self, from: &str, event: &str) -> Option<&'static str> {
        self.transitions
            .iter()
            .find(|t| t.from == from && t.event == event)
            .map(|t| t.to)
    }

    /// Every edge leaving `from`.
    pub fn edges_from<'a>(&'a self, from: &'a str) -> impl Iterator<Item = &'a Transition> {
        self.transitions.iter().filter(move |t| t.from == from)
    }

    /// Is there *any* declared edge `from -> to`?
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.transitions
            .iter()
            .any(|t| t.from == from && t.to == to)
    }

    /// Event names with the given polarity.
    pub fn events_with_dir(&self, dir: Dir) -> BTreeSet<&'static str> {
        self.transitions
            .iter()
            .filter(|t| t.dir == dir)
            .map(|t| t.event)
            .collect()
    }

    /// States reachable from the initial state (including it).
    pub fn reachable(&self) -> BTreeSet<&'static str> {
        let mut seen = BTreeSet::new();
        let mut work: Vec<&'static str> = self.initial().into_iter().collect();
        while let Some(s) = work.pop() {
            if !seen.insert(s) {
                continue;
            }
            for t in self.transitions.iter().filter(|t| t.from == s) {
                work.push(t.to);
            }
        }
        seen
    }

    /// States from which some terminal state can be reached (terminal
    /// states themselves included). The complement — reachable states
    /// missing from this set — are live-lock traps.
    pub fn can_finish(&self) -> BTreeSet<&'static str> {
        // Reverse reachability from the terminal set.
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        let mut work: Vec<&'static str> = self.terminal.to_vec();
        while let Some(s) = work.pop() {
            if !seen.insert(s) {
                continue;
            }
            for t in self.transitions.iter().filter(|t| t.to == s) {
                work.push(t.from);
            }
        }
        seen
    }

    /// Internal consistency of one role's table. Returns one message
    /// per problem; an empty vector means the spec is well-formed.
    pub fn check(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.states.is_empty() {
            out.push(format!("{}: declares no states", self.name));
            return out;
        }
        for t in self.transitions {
            for endpoint in [t.from, t.to] {
                if !self.has_state(endpoint) {
                    out.push(format!(
                        "{}: transition {} --{}{}--> {} references undeclared state {endpoint}",
                        self.name,
                        t.from,
                        t.event,
                        t.dir.suffix(),
                        t.to
                    ));
                }
            }
        }
        for s in self.terminal {
            if !self.has_state(s) {
                out.push(format!("{}: terminal state {s} is undeclared", self.name));
            }
        }
        let mut seen_edges = BTreeSet::new();
        for t in self.transitions {
            if !seen_edges.insert((t.from, t.event)) {
                out.push(format!(
                    "{}: duplicate transition on ({}, {})",
                    self.name, t.from, t.event
                ));
            }
        }
        let reachable = self.reachable();
        for s in self.states {
            if !reachable.contains(s) {
                out.push(format!(
                    "{}: state {s} is unreachable from initial state {}",
                    self.name,
                    self.initial().unwrap_or("?")
                ));
            }
        }
        if self.terminal.is_empty() {
            out.push(format!(
                "{}: declares no terminal state; the machine can never rest",
                self.name
            ));
        } else {
            let finish = self.can_finish();
            for s in &reachable {
                if !finish.contains(s) {
                    out.push(format!(
                        "{}: no terminal state is reachable from {s}",
                        self.name
                    ));
                }
            }
        }
        out
    }

    /// Message-set duality against a peer role: every message this role
    /// sends, the peer must receive, and vice versa. Internal events
    /// are invisible and exempt.
    pub fn check_dual(&self, peer: &ProtocolSpec) -> Vec<String> {
        let mut out = Vec::new();
        for (mine, theirs, what) in [
            (Dir::Send, Dir::Recv, "send"),
            (Dir::Recv, Dir::Send, "recv"),
        ] {
            let ours = self.events_with_dir(mine);
            let peers = peer.events_with_dir(theirs);
            for ev in ours.difference(&peers) {
                out.push(format!(
                    "{}: {what} of {ev} has no matching {} in dual {}",
                    self.name,
                    match theirs {
                        Dir::Send => "send",
                        _ => "recv",
                    },
                    peer.name
                ));
            }
        }
        out
    }
}

impl fmt::Display for ProtocolSpec {
    /// Render the table back in the spec grammar (one edge per line).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "protocol {}", self.name)?;
        for t in self.transitions {
            writeln!(
                f,
                "  {} --{}{}--> {}",
                t.from,
                t.event,
                t.dir.suffix(),
                t.to
            )?;
        }
        Ok(())
    }
}

/// Error returned by the generated `step` when the spec declares no
/// edge for `(from, event)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IllegalTransition {
    /// Protocol the step was attempted on.
    pub protocol: &'static str,
    /// State the machine was in.
    pub from: String,
    /// Event that had no declared edge.
    pub event: String,
}

impl fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal transition in {}: no edge for event `{}` out of state {}",
            self.protocol, self.event, self.from
        )
    }
}

impl std::error::Error for IllegalTransition {}

/// A set of registered specs, so callers (tests, doctors, debug
/// tooling) can cross-check every declared machine in one sweep.
#[derive(Debug, Default)]
pub struct Registry {
    specs: Vec<&'static ProtocolSpec>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register a spec. Duplicate names are rejected — two machines
    /// claiming the same `namespace.role` would make duality lookups
    /// ambiguous.
    pub fn register(&mut self, spec: &'static ProtocolSpec) -> Result<(), String> {
        if self.get(spec.name).is_some() {
            return Err(format!("duplicate protocol spec {}", spec.name));
        }
        self.specs.push(spec);
        Ok(())
    }

    /// Look a spec up by dotted name.
    pub fn get(&self, name: &str) -> Option<&'static ProtocolSpec> {
        self.specs.iter().copied().find(|s| s.name == name)
    }

    /// All registered specs, in registration order.
    pub fn specs(&self) -> &[&'static ProtocolSpec] {
        &self.specs
    }

    /// Run [`ProtocolSpec::check`] on every spec and
    /// [`ProtocolSpec::check_dual`] on every declared pairing. A
    /// declared dual that is not registered is itself a finding.
    pub fn check_all(&self) -> Vec<String> {
        let mut out = Vec::new();
        for spec in &self.specs {
            out.extend(spec.check());
            if let Some(dual) = spec.dual {
                match self.get(dual) {
                    Some(peer) => out.extend(spec.check_dual(peer)),
                    None => out.push(format!(
                        "{}: declared dual {dual} is not registered",
                        spec.name
                    )),
                }
            }
        }
        out
    }
}

/// Maps an event's polarity suffix token to a [`Dir`] value; used by
/// [`protocol!`] expansions, not user code.
#[doc(hidden)]
#[macro_export]
macro_rules! __dir {
    (!) => {
        $crate::Dir::Send
    };
    (?) => {
        $crate::Dir::Recv
    };
    (~) => {
        $crate::Dir::Internal
    };
}

/// Renders an optional `dual namespace.role` clause; used by
/// [`protocol!`] expansions, not user code.
#[doc(hidden)]
#[macro_export]
macro_rules! __opt_dual {
    () => {
        None
    };
    ($ns:ident . $role:ident) => {
        Some(concat!(stringify!($ns), ".", stringify!($role)))
    };
}

/// Declare one protocol role: typestate API + runtime table.
///
/// ```text
/// protocol! {
///     /// docs…
///     pub <EnumName> of <namespace>.<role> [dual <namespace>.<role>];
///     states S1, S2, …;      // first state is initial
///     terminal T1, …;        // quiescent states
///     S1 --event!--> S2;     // ! send, ? recv, ~ internal
///     …
/// }
/// ```
///
/// Emits, in the enclosing module (one invocation per module):
///
/// * `enum <EnumName> { S1, S2, … }` — the runtime state enum, with
///   `SPEC`/`spec()`, `initial()`, `is_terminal()`, `name_str()`,
///   `from_name()` and a spec-checked `step(event)`;
/// * one zero-sized `struct S;` per state, whose transition methods
///   consume `self` and return the next state's type;
/// * `impl From<S> for <EnumName>` for each state, so a typestate value
///   can be stored/traced as the runtime enum.
///
/// The `xtask analyze` protocol pass re-parses this exact grammar from
/// source, so the declaration *is* the specification of record.
#[macro_export]
macro_rules! protocol {
    (
        $(#[$meta:meta])*
        $vis:vis $name:ident of $pns:ident . $prole:ident $(dual $dns:ident . $drole:ident)? ;
        states $($st:ident),+ ;
        terminal $($term:ident),+ ;
        $( $from:ident - - $ev:ident $dir:tt - -> $to:ident ; )+
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $name {
            $(
                #[doc = concat!("Spec state `", stringify!($st), "`.")]
                $st,
            )+
        }

        // `allow`, not `expect`: whether anything here goes unused differs
        // from one invocation to the next.
        #[allow(
            dead_code,
            reason = "generated scaffolding: a machine may use only part of the \
                      emitted API (typestate chains but never runtime steps, say)"
        )]
        impl $name {
            /// The declared transition table.
            $vis const SPEC: $crate::ProtocolSpec = $crate::ProtocolSpec {
                name: concat!(stringify!($pns), ".", stringify!($prole)),
                dual: $crate::__opt_dual!($($dns . $drole)?),
                states: &[$(stringify!($st)),+],
                terminal: &[$(stringify!($term)),+],
                transitions: &[$(
                    $crate::Transition {
                        from: stringify!($from),
                        event: stringify!($ev),
                        dir: $crate::__dir!($dir),
                        to: stringify!($to),
                    }
                ),+],
            };

            /// The declared transition table.
            $vis fn spec() -> &'static $crate::ProtocolSpec {
                &Self::SPEC
            }

            /// The initial state (first declared).
            $vis fn initial() -> Self {
                const FIRST: &[$name] = &[$($name::$st),+];
                FIRST[0]
            }

            /// Spec-level state name.
            $vis fn name_str(self) -> &'static str {
                match self {
                    $($name::$st => stringify!($st)),+
                }
            }

            /// Parse a spec-level state name.
            $vis fn from_name(name: &str) -> Option<Self> {
                match name {
                    $(stringify!($st) => Some($name::$st),)+
                    _ => None,
                }
            }

            /// Is this a declared terminal (quiescent) state?
            $vis fn is_terminal(self) -> bool {
                Self::SPEC.is_terminal(self.name_str())
            }

            /// Take `event` against the spec table. Unlike the
            /// typestate API this is checked at run time — use it where
            /// the current state is data (e.g. one slot per peer).
            $vis fn step(self, event: &str) -> Result<Self, $crate::IllegalTransition> {
                match Self::SPEC.step(self.name_str(), event).and_then(Self::from_name) {
                    Some(next) => Ok(next),
                    None => Err($crate::IllegalTransition {
                        protocol: Self::SPEC.name,
                        from: self.name_str().to_string(),
                        event: event.to_string(),
                    }),
                }
            }
        }

        $(
            #[doc = concat!("Typestate for spec state `", stringify!($st), "`.")]
            #[derive(Debug, PartialEq, Eq)]
            $vis struct $st;

            impl From<$st> for $name {
                fn from(_: $st) -> $name {
                    $name::$st
                }
            }
        )+

        $(
            #[allow(
                dead_code,
                reason = "generated typestate edges: a machine may never take some of them"
            )]
            impl $from {
                #[doc = concat!(
                    "Transition `", stringify!($from), " --", stringify!($ev),
                    "--> ", stringify!($to), "`."
                )]
                $vis fn $ev(self) -> $to {
                    $to
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    mod sender {
        crate::protocol! {
            /// Sender half of a toy rendezvous.
            pub RndvSendState of rendezvous.sender dual rendezvous.receiver;
            states Idle, AwaitCts, Streaming;
            terminal Idle;
            Idle --rts!--> AwaitCts;
            AwaitCts --cts?--> Streaming;
            Streaming --fin!--> Idle;
        }
    }

    mod receiver {
        crate::protocol! {
            /// Receiver half of a toy rendezvous.
            pub RndvRecvState of rendezvous.receiver dual rendezvous.sender;
            states Idle, CtsSent;
            terminal Idle;
            Idle --rts?--> CtsSent;
            CtsSent --cts!--> CtsSent;
            CtsSent --fin?--> Idle;
        }
    }

    #[test]
    fn typestate_transitions_compose() {
        let s = sender::Idle;
        let s = s.rts().cts().fin();
        assert_eq!(sender::RndvSendState::from(s), sender::RndvSendState::Idle);
        // The dual role steps through the mirror-image chain.
        let r = receiver::Idle;
        let r = r.rts().cts().fin();
        assert_eq!(
            receiver::RndvRecvState::from(r),
            receiver::RndvRecvState::Idle
        );
    }

    #[test]
    fn runtime_step_follows_the_table() {
        use sender::RndvSendState as S;
        let s = S::initial();
        assert_eq!(s, S::Idle);
        assert!(s.is_terminal());
        let s = s.step("rts").expect("declared edge");
        assert_eq!(s, S::AwaitCts);
        assert!(!s.is_terminal());
        let err = s.step("rts").expect_err("undeclared edge");
        assert_eq!(err.protocol, "rendezvous.sender");
        assert_eq!(err.from, "AwaitCts");
        assert!(err.to_string().contains("illegal transition"));
    }

    #[test]
    fn spec_table_is_queryable() {
        let spec = sender::RndvSendState::spec();
        assert_eq!(spec.name, "rendezvous.sender");
        assert_eq!(spec.dual, Some("rendezvous.receiver"));
        assert_eq!(spec.initial(), Some("Idle"));
        assert_eq!(spec.step("Idle", "rts"), Some("AwaitCts"));
        assert_eq!(spec.step("Idle", "cts"), None);
        assert!(spec.has_edge("Streaming", "Idle"));
        assert!(spec.check().is_empty(), "{:?}", spec.check());
    }

    #[test]
    fn duality_holds_for_the_toy_pair() {
        let s = sender::RndvSendState::spec();
        let r = receiver::RndvRecvState::spec();
        assert!(s.check_dual(r).is_empty(), "{:?}", s.check_dual(r));
        assert!(r.check_dual(s).is_empty(), "{:?}", r.check_dual(s));
    }

    #[test]
    fn duality_violation_is_reported() {
        static LONELY: ProtocolSpec = ProtocolSpec {
            name: "toy.sender",
            dual: Some("toy.receiver"),
            states: &["A", "B"],
            terminal: &["A"],
            transitions: &[Transition {
                from: "A",
                event: "extra",
                dir: Dir::Send,
                to: "B",
            }],
        };
        static PEER: ProtocolSpec = ProtocolSpec {
            name: "toy.receiver",
            dual: Some("toy.sender"),
            states: &["A"],
            terminal: &["A"],
            transitions: &[Transition {
                from: "A",
                event: "other",
                dir: Dir::Recv,
                to: "A",
            }],
        };
        let issues = LONELY.check_dual(&PEER);
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("send of extra has no matching recv"));
    }

    #[test]
    fn check_flags_malformed_specs() {
        static BAD: ProtocolSpec = ProtocolSpec {
            name: "bad.role",
            dual: None,
            states: &["A", "B", "C"],
            terminal: &[],
            transitions: &[
                Transition {
                    from: "A",
                    event: "go",
                    dir: Dir::Internal,
                    to: "Ghost",
                },
                Transition {
                    from: "A",
                    event: "go",
                    dir: Dir::Internal,
                    to: "B",
                },
            ],
        };
        let issues = BAD.check();
        let text = issues.join("\n");
        assert!(text.contains("undeclared state Ghost"), "{text}");
        assert!(text.contains("duplicate transition"), "{text}");
        assert!(text.contains("state C is unreachable"), "{text}");
        assert!(text.contains("no terminal state"), "{text}");
    }

    #[test]
    fn check_flags_states_that_cannot_finish() {
        static TRAP: ProtocolSpec = ProtocolSpec {
            name: "trap.role",
            dual: None,
            states: &["Start", "Done", "Pit"],
            terminal: &["Done"],
            transitions: &[
                Transition {
                    from: "Start",
                    event: "ok",
                    dir: Dir::Internal,
                    to: "Done",
                },
                Transition {
                    from: "Start",
                    event: "oops",
                    dir: Dir::Internal,
                    to: "Pit",
                },
                Transition {
                    from: "Pit",
                    event: "spin",
                    dir: Dir::Internal,
                    to: "Pit",
                },
            ],
        };
        let issues = TRAP.check();
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("no terminal state is reachable from Pit"));
    }

    #[test]
    fn registry_cross_checks_pairs() {
        let mut reg = Registry::new();
        reg.register(sender::RndvSendState::spec())
            .expect("first registration");
        assert!(
            reg.register(sender::RndvSendState::spec()).is_err(),
            "duplicate name must be rejected"
        );
        // Dual declared but missing from the registry.
        let issues = reg.check_all();
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].contains("dual rendezvous.receiver is not registered"));

        reg.register(receiver::RndvRecvState::spec())
            .expect("second registration");
        assert!(reg.check_all().is_empty(), "{:?}", reg.check_all());
    }
}
