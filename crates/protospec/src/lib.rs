//! Session-typed protocol state machines, checked where they are
//! declared.
//!
//! The repo's message-passing protocols (eager→rendezvous handshakes,
//! RTO/retransmit lifecycles, connection boot/steady/poisoned phases)
//! started life as informal state machines scattered across match arms.
//! The [`protocol!`] macro makes each one an explicit table, and its
//! expansion is the only checker the table needs:
//!
//! * **typestate** — one token struct per state whose edge methods
//!   consume `self` and return the next state's token, so an off-table
//!   step is a type error. A token's only field is private: outside the
//!   declaring module a state value comes only from `start()`/`initial()`,
//!   from an edge method, or from the table's run-time `step`;
//! * **const assertions** — one per state (reachable from the initial
//!   state, with a path to a terminal state), one per terminal (a
//!   declared state) and, for a role declared `dual` of another, one per
//!   message edge (the peer takes the opposite side of it). A violation
//!   fails the build with a message naming the state or event.
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
//!         pub RndvSendState of rendezvous.sender dual super::receiver::RndvRecvState;
//!         states Idle, AwaitCts, Streaming;
//!         terminal Idle;
//!         Idle --rts!--> AwaitCts;
//!         AwaitCts --cts?--> Streaming;
//!         Streaming --fin!--> Idle;
//!     }
//! }
//! mod receiver {
//!     protospec::protocol! {
//!         /// Receiver half: every message the sender sends, it receives.
//!         pub RndvRecvState of rendezvous.receiver dual super::sender::RndvSendState;
//!         states Idle, CtsDue, Draining;
//!         terminal Idle;
//!         Idle --rts?--> CtsDue;
//!         CtsDue --cts!--> Draining;
//!         Draining --fin?--> Idle;
//!     }
//! }
//!
//! use sender::RndvSendState;
//!
//! # fn main() {
//! // Typestate: edges consume the token; out-of-order calls do not
//! // compile (`Idle` has no `cts` method) and neither does a token
//! // built by hand (`sender::Idle(())`: its field is private).
//! let _idle: sender::Idle = RndvSendState::start().rts().cts().fin();
//!
//! // A state held as data is matched, and a matched token steps on.
//! let s: RndvSendState = match RndvSendState::initial() {
//!     RndvSendState::Idle(idle) => idle.rts().into(),
//!     other => other,
//! };
//! assert!(matches!(s, RndvSendState::AwaitCts(_)));
//!
//! // Where the event itself is data, the table steps at run time.
//! assert!(s.step("cts").is_ok());
//! assert!(s.step("rts").is_err());
//! # }
//! ```
//!
//! Event names carry a polarity suffix: `!` sends, `?` receives, `~` is
//! an internal (τ) step. A machine whose table breaks a rule does not
//! build; `fixtures/reject/` holds one violation per rule and the CI
//! gate that proves each still fails at its line.

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

/// A declared protocol role: the transition table emitted by
/// [`protocol!`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// Dotted `namespace.role` name (`"rendezvous.sender"`).
    pub name: &'static str,
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
    /// Is `state` a declared terminal (quiescent) state?
    pub fn is_terminal(&self, state: &str) -> bool {
        self.terminal.contains(&state)
    }
}

/// Error returned by the generated `step` when the spec declares no
/// edge for `(from, event)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IllegalTransition {
    /// Protocol the step was attempted on.
    pub protocol: &'static str,
    /// State the machine was in.
    pub from: &'static str,
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

// ------------------------------------------------------------ checker
//
// Run by `protocol!`'s const assertions at compile time. A state set is
// a bitmask over `spec.states` (bit `i` is the `i`-th declared state),
// so a machine has at most 128 states; a larger one overflows the shift
// and fails the build.

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// The bit of state `name`, or 0 when it is not declared.
const fn bit(spec: &ProtocolSpec, name: &str) -> u128 {
    let mut i = 0;
    while i < spec.states.len() {
        if str_eq(spec.states[i], name) {
            return 1 << i;
        }
        i += 1;
    }
    0
}

/// Closes `set` under the table's edges, followed forwards (`from` →
/// `to`) or backwards.
const fn closure(spec: &ProtocolSpec, mut set: u128, forwards: bool) -> u128 {
    loop {
        let mut next = set;
        let mut i = 0;
        while i < spec.transitions.len() {
            let t = &spec.transitions[i];
            let (a, b) = if forwards {
                (t.from, t.to)
            } else {
                (t.to, t.from)
            };
            if set & bit(spec, a) != 0 {
                next |= bit(spec, b);
            }
            i += 1;
        }
        if next == set {
            return set;
        }
        set = next;
    }
}

/// Is `state` a declared state?
#[doc(hidden)]
pub const fn declares(spec: &ProtocolSpec, state: &str) -> bool {
    bit(spec, state) != 0
}

/// Is `state` reachable from the initial (first declared) state?
#[doc(hidden)]
pub const fn reachable(spec: &ProtocolSpec, state: &str) -> bool {
    closure(spec, 1, true) & bit(spec, state) != 0
}

/// Is some terminal state reachable from `state` (itself included)?
#[doc(hidden)]
pub const fn can_finish(spec: &ProtocolSpec, state: &str) -> bool {
    let mut terminal = 0;
    let mut i = 0;
    while i < spec.terminal.len() {
        terminal |= bit(spec, spec.terminal[i]);
        i += 1;
    }
    closure(spec, terminal, false) & bit(spec, state) != 0
}

/// Does the table take `event` with polarity `dir` on some edge?
#[doc(hidden)]
pub const fn has_event(spec: &ProtocolSpec, event: &str, dir: Dir) -> bool {
    let mut i = 0;
    while i < spec.transitions.len() {
        let t = &spec.transitions[i];
        if str_eq(t.event, event) && t.dir as u8 == dir as u8 {
            return true;
        }
        i += 1;
    }
    false
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

/// The duality assertions of one role: every message it sends, the
/// dual receives, and every message it receives, the dual sends. Used
/// by [`protocol!`] expansions, not user code.
#[doc(hidden)]
#[macro_export]
macro_rules! __dual {
    ($name:ident [] $($edge:tt)*) => {};
    ($name:ident [$dual:path] $($ev:ident $dir:tt)+) => {
        $( $crate::__dual!(@edge $name $dual, $ev $dir); )+
    };
    (@edge $name:ident $dual:path, $ev:ident !) => {
        const _: () = assert!(
            $crate::has_event(&<$dual>::SPEC, stringify!($ev), $crate::Dir::Recv),
            concat!("protocol `", stringify!($name), "` sends `", stringify!($ev),
                    "` but the dual never receives it")
        );
    };
    (@edge $name:ident $dual:path, $ev:ident ?) => {
        const _: () = assert!(
            $crate::has_event(&<$dual>::SPEC, stringify!($ev), $crate::Dir::Send),
            concat!("protocol `", stringify!($name), "` receives `", stringify!($ev),
                    "` but the dual never sends it")
        );
    };
    (@edge $name:ident $dual:path, $ev:ident ~) => {};
}

/// Declare one protocol role: typestate API, run-time table and the
/// compile-time checks of both.
///
/// ```text
/// protocol! {
///     /// docs…
///     pub <EnumName> of <namespace>.<role> [dual <path to the peer's enum>];
///     states S1, S2, …;      // first state is initial
///     terminal T1, …;        // quiescent states
///     S1 --event!--> S2;     // ! send, ? recv, ~ internal
///     …
/// }
/// ```
///
/// Emits, in the enclosing module (one invocation per module):
///
/// * one token struct per state, `pub struct S(());` — `Copy`, and
///   buildable only in this module — whose edge methods consume `self`
///   and return the next state's token;
/// * `enum <EnumName> { S1(S1), S2(S2), … }`, the state held as data,
///   with `SPEC`, `start()` (the initial token), `initial()`,
///   `is_terminal()`, `name_str()` and a run-time `step(event)` for
///   where the event itself is data; `From<S>` for each token;
/// * const assertions that fail the build when a state is unreachable
///   from the initial state or has no path to a terminal state, a
///   terminal is not a declared state, or a message edge has no
///   opposite in the `dual`.
///
/// rustc itself rejects the rest: an edge endpoint that is not a state
/// (unknown type), a second edge on the same `(from, event)` (duplicate
/// method) and a `dual` path that resolves to nothing.
#[macro_export]
macro_rules! protocol {
    (
        $(#[$meta:meta])*
        $vis:vis $name:ident of $pns:ident . $prole:ident $(dual $dual:path)? ;
        states $init:ident $(, $st:ident)* ;
        $($body:tt)+
    ) => {
        $crate::protocol! {
            @initial $init;
            $(#[$meta])*
            $vis $name of $pns . $prole [$($dual)?];
            states $init $(, $st)*;
            $($body)+
        }
    };
    (
        @initial $init:ident;
        $(#[$meta:meta])*
        $vis:vis $name:ident of $pns:ident . $prole:ident [$($dual:path)?] ;
        states $($st:ident),+ ;
        terminal $($term:ident),+ ;
        $( $from:ident - - $ev:ident $dir:tt - -> $to:ident ; )+
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $name {
            $(
                #[doc = concat!("Spec state `", stringify!($st), "`.")]
                $st($st),
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

            /// The initial state's token: where a typestate chain begins.
            $vis const fn start() -> $init {
                $init(())
            }

            /// The initial state (first declared).
            $vis const fn initial() -> Self {
                $name::$init($init(()))
            }

            /// Spec-level state name.
            $vis fn name_str(self) -> &'static str {
                match self {
                    $($name::$st(_) => stringify!($st)),+
                }
            }

            /// Is this a declared terminal (quiescent) state?
            $vis fn is_terminal(self) -> bool {
                Self::SPEC.is_terminal(self.name_str())
            }

            /// Take `event` against the table. Unlike the typestate API
            /// this is checked at run time — use it where the event is
            /// data too, not just the state.
            $vis fn step(self, event: &str) -> Result<Self, $crate::IllegalTransition> {
                match (self, event) {
                    $( ($name::$from(_), stringify!($ev)) => Ok($name::$to($to(()))), )+
                    _ => Err($crate::IllegalTransition {
                        protocol: Self::SPEC.name,
                        from: self.name_str(),
                        event: event.to_string(),
                    }),
                }
            }
        }

        $(
            #[doc = concat!("Token for spec state `", stringify!($st), "`.")]
            #[derive(Debug, Clone, Copy, PartialEq, Eq)]
            $vis struct $st(());

            impl From<$st> for $name {
                fn from(s: $st) -> $name {
                    $name::$st(s)
                }
            }

            const _: () = {
                assert!(
                    $crate::reachable(&<$name>::SPEC, stringify!($st)),
                    concat!("protocol `", stringify!($name), "`: state `", stringify!($st),
                            "` is unreachable from the initial state")
                );
                assert!(
                    $crate::can_finish(&<$name>::SPEC, stringify!($st)),
                    concat!("protocol `", stringify!($name), "`: state `", stringify!($st),
                            "` has no path to a terminal state")
                );
            };
        )+

        $(
            const _: () = assert!(
                $crate::declares(&<$name>::SPEC, stringify!($term)),
                concat!("protocol `", stringify!($name), "`: terminal `", stringify!($term),
                        "` is not a declared state")
            );
        )+

        $crate::__dual!($name [$($dual)?] $($ev $dir)+);

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
                $vis const fn $ev(self) -> $to {
                    $to(())
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
            pub(crate) RndvSendState of rendezvous.sender dual super::receiver::RndvRecvState;
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
            pub(crate) RndvRecvState of rendezvous.receiver dual super::sender::RndvSendState;
            states Idle, CtsSent;
            terminal Idle;
            Idle --rts?--> CtsSent;
            CtsSent --cts!--> CtsSent;
            CtsSent --fin?--> Idle;
        }
    }

    const fn edge(from: &'static str, event: &'static str, to: &'static str) -> Transition {
        Transition {
            from,
            event,
            dir: Dir::Internal,
            to,
        }
    }

    #[test]
    fn typestate_transitions_compose() {
        let s = sender::RndvSendState::start().rts().cts().fin();
        assert_eq!(
            sender::RndvSendState::from(s),
            sender::RndvSendState::initial()
        );
        // The dual role steps through the mirror-image chain.
        let r = receiver::RndvRecvState::start().rts().cts().fin();
        assert_eq!(
            receiver::RndvRecvState::from(r),
            receiver::RndvRecvState::initial()
        );
    }

    #[test]
    fn runtime_step_follows_the_table() {
        use sender::RndvSendState as S;
        let s = S::initial();
        assert!(matches!(s, S::Idle(_)));
        assert!(s.is_terminal());
        let s = s.step("rts").expect("declared edge");
        assert!(matches!(s, S::AwaitCts(_)));
        assert!(!s.is_terminal());
        let err = s.step("rts").expect_err("undeclared edge");
        assert_eq!(err.protocol, "rendezvous.sender");
        assert_eq!(err.from, "AwaitCts");
        assert!(err.to_string().contains("illegal transition"));
    }

    #[test]
    fn declared_machines_pass_the_checker() {
        let spec = &sender::RndvSendState::SPEC;
        assert_eq!(spec.name, "rendezvous.sender");
        for state in spec.states {
            assert!(reachable(spec, state) && can_finish(spec, state), "{state}");
        }
        assert!(has_event(&receiver::RndvRecvState::SPEC, "rts", Dir::Recv));
    }

    #[test]
    fn duality_violation_is_reported() {
        static LONELY: ProtocolSpec = ProtocolSpec {
            name: "toy.sender",
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
            states: &["A"],
            terminal: &["A"],
            transitions: &[Transition {
                from: "A",
                event: "other",
                dir: Dir::Recv,
                to: "A",
            }],
        };
        // LONELY sends `extra` but the dual never receives it …
        assert!(!has_event(&PEER, "extra", Dir::Recv));
        // … and PEER receives `other` but the dual never sends it.
        assert!(!has_event(&LONELY, "other", Dir::Send));
        // Polarity counts: a receive does not answer a receive.
        assert!(has_event(&PEER, "other", Dir::Recv));
        assert!(!has_event(&PEER, "other", Dir::Send));
    }

    #[test]
    fn check_flags_malformed_specs() {
        static BAD: ProtocolSpec = ProtocolSpec {
            name: "bad.role",
            states: &["A", "B", "C"],
            terminal: &["B", "Ghost"],
            transitions: &[edge("A", "go", "B")],
        };
        // Terminal `Ghost` is not a declared state.
        assert!(!declares(&BAD, "Ghost"));
        assert!(declares(&BAD, "B"));
        // State `C` is unreachable from the initial state.
        assert!(!reachable(&BAD, "C"));
        assert!(reachable(&BAD, "A") && reachable(&BAD, "B"));
    }

    #[test]
    fn check_flags_states_that_cannot_finish() {
        static TRAP: ProtocolSpec = ProtocolSpec {
            name: "trap.role",
            states: &["Start", "Done", "Pit"],
            terminal: &["Done"],
            transitions: &[
                edge("Start", "ok", "Done"),
                edge("Start", "oops", "Pit"),
                edge("Pit", "spin", "Pit"),
            ],
        };
        // State `Pit` has no path to a terminal state; the rest do.
        assert!(!can_finish(&TRAP, "Pit"));
        assert!(can_finish(&TRAP, "Start") && can_finish(&TRAP, "Done"));
        assert!(reachable(&TRAP, "Pit"));
    }
}
