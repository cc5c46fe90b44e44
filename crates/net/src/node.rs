//! The node: a pure message-in/messages-out protocol core.
//!
//! [`NodeProto`] is a plain synchronous state machine — one wire line in,
//! zero or more wire lines out. The runner's router calls
//! [`NodeProto::handle`] directly for each delivered line and routes what
//! comes back, so the protocol logic is unit-testable on its own and a
//! run needs no threads.
//!
//! ## The activation protocol
//!
//! The harness serialises activations: the hub activates one node at a
//! time and waits for its `activate_ok` (retrying through chaos) before
//! activating the next. An activated node runs a *fresh read round*:
//!
//! 1. On `activate(round)` it sends a `state` probe (fresh `msg_id`s) to
//!    every neighbour, announcing its own state.
//! 2. Each neighbour answers `state_ok` with its current state, correlated
//!    by `in_reply_to`.
//! 3. When replies from **all** neighbours of the *current attempt* have
//!    arrived, the node applies `δ` to the freshly-read neighbourhood and
//!    reports `activate_ok` to the hub.
//!
//! Because the views are fresh (same attempt, all neighbours) and no other
//! node steps concurrently, every completed activation is exactly one
//! atomic step of the paper's exclusive model — so chaos (drops, dups,
//! reorderings, delays) can change *which* fair schedule emerges but never
//! invent a transition the model does not have. Duplicated replies are
//! idempotent (keyed by neighbour), stale replies correlate to a discarded
//! attempt and are ignored, and a re-delivered `activate` for an
//! already-completed round just re-sends the cached `activate_ok` (steps
//! are at-most-once per round).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use wam_core::{Interner, Machine, Neighbourhood, State};
use wam_graph::Label;

use crate::wire::{node_addr, parse_line, render_line, Body, Envelope, Payload, WireOutput, HUB};

/// A run-shared bijection between machine states and the `u64` indices the
/// wire carries. The in-process analogue of the state table a serialised
/// trace would ship alongside its JSON: states are arbitrary Rust values
/// with no canonical serial form, so messages reference them by index.
/// Indices are assigned in first-occurrence order, and each state is owned
/// once. A chaos run is one sequential router, so the nodes share the
/// table through an [`Rc`] and a [`RefCell`].
#[derive(Debug)]
pub struct StateIntern<S> {
    inner: RefCell<Interner<S>>,
}

impl<S: State> Default for StateIntern<S> {
    fn default() -> Self {
        StateIntern {
            inner: RefCell::new(Interner::new()),
        }
    }
}

impl<S: State> StateIntern<S> {
    /// Creates an empty intern table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index of `s`, allocating one if unseen.
    pub fn intern(&self, s: &S) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let i = match inner.index_of(s) {
            Some(i) => i as u32,
            None => inner.intern(s.clone()).0,
        };
        u64::from(i)
    }

    /// The state at index `i`, if allocated.
    pub fn get(&self, i: u64) -> Option<S> {
        let inner = self.inner.borrow();
        let i = usize::try_from(i).ok()?;
        inner.configs().get(i).cloned()
    }

    /// Number of distinct states seen so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether no state has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One read-round attempt: the probe ids we sent and the fresh neighbour
/// states collected so far.
#[derive(Debug)]
struct Attempt<S> {
    round: u64,
    /// probe `msg_id` → neighbour it went to.
    probes: BTreeMap<u64, u64>,
    /// neighbour → freshly read state (idempotent under duplicate replies).
    got: BTreeMap<u64, S>,
}

/// The synchronous protocol core of one node.
#[derive(Debug)]
pub struct NodeProto<S: State> {
    machine: Machine<S>,
    intern: Rc<StateIntern<S>>,
    /// Assigned by `init`; `None` while crashed / before first init.
    me: Option<u64>,
    state: Option<S>,
    ver: u64,
    neighbours: Vec<u64>,
    have_topology: bool,
    next_msg_id: u64,
    attempt: Option<Attempt<S>>,
    /// Last completed round and its cached `activate_ok` line, so a
    /// re-delivered `activate` cannot double-step.
    last_completed: Option<(u64, String)>,
}

impl<S: State> NodeProto<S> {
    /// A fresh, uninitialised node.
    pub fn new(machine: Machine<S>, intern: Rc<StateIntern<S>>) -> Self {
        NodeProto {
            machine,
            intern,
            me: None,
            state: None,
            ver: 0,
            neighbours: Vec::new(),
            have_topology: false,
            next_msg_id: 0,
            attempt: None,
            last_completed: None,
        }
    }

    fn addr(&self) -> String {
        node_addr(self.me.expect("addr of uninitialised node") as usize)
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_msg_id += 1;
        self.next_msg_id
    }

    fn reply(&mut self, to: &str, in_reply_to: Option<u64>, payload: Payload) -> String {
        let msg_id = self.fresh_id();
        render_line(&Envelope {
            src: self.addr(),
            dest: to.to_string(),
            body: Body {
                msg_id: Some(msg_id),
                in_reply_to,
                payload,
            },
        })
    }

    /// Handles one delivered line, producing the lines to send. Lines that
    /// do not parse, or arrive while the node lacks the state to act
    /// (crashed, no topology yet), are dropped — the sender's retry logic
    /// owns recovery.
    pub fn handle(&mut self, line: &str) -> Vec<String> {
        let Ok(env) = parse_line(line) else {
            return Vec::new();
        };
        let reply_to = env.body.msg_id;
        match env.body.payload {
            Payload::Init { node, label } => {
                // (Re)birth: everything soft is lost, δ₀ restores state.
                self.me = Some(node);
                self.state = Some(self.machine.initial(Label(label as u16)));
                self.ver = 0;
                self.neighbours.clear();
                self.have_topology = false;
                self.attempt = None;
                self.last_completed = None;
                vec![self.reply(&env.src, reply_to, Payload::InitOk)]
            }
            Payload::Topology { neighbours } => {
                if self.me.is_none() {
                    return Vec::new();
                }
                self.neighbours = neighbours;
                self.have_topology = true;
                vec![self.reply(&env.src, reply_to, Payload::TopologyOk)]
            }
            Payload::State { .. } => {
                // A neighbour is reading: answer with our current state.
                let Some(state) = self.state.clone() else {
                    return Vec::new();
                };
                let idx = self.intern.intern(&state);
                vec![self.reply(
                    &env.src,
                    reply_to,
                    Payload::StateOk {
                        ver: self.ver,
                        state: idx,
                    },
                )]
            }
            Payload::StateOk { state, .. } => self.on_state_ok(env.body.in_reply_to, state),
            Payload::Activate { round } => self.on_activate(round),
            Payload::Crash => {
                if self.me.is_none() {
                    return Vec::new();
                }
                let ack = self.reply(&env.src, reply_to, Payload::CrashOk);
                self.me = None;
                self.state = None;
                self.ver = 0;
                self.neighbours.clear();
                self.have_topology = false;
                self.attempt = None;
                self.last_completed = None;
                vec![ack]
            }
            // Acks addressed to a node carry no obligations.
            Payload::InitOk
            | Payload::TopologyOk
            | Payload::ActivateOk { .. }
            | Payload::CrashOk => Vec::new(),
        }
    }

    fn on_activate(&mut self, round: u64) -> Vec<String> {
        if self.me.is_none() || self.state.is_none() || !self.have_topology {
            return Vec::new(); // crashed or half-born: the hub's retries starve out
        }
        if let Some((done, cached)) = &self.last_completed {
            if *done == round {
                // Duplicate activate for a round we already stepped:
                // re-send the receipt, never step twice.
                return vec![cached.clone()];
            }
        }
        // A new attempt abandons any incomplete one (its late replies will
        // fail correlation); a node with no neighbours steps immediately on
        // the empty neighbourhood.
        let mut attempt = Attempt {
            round,
            probes: BTreeMap::new(),
            got: BTreeMap::new(),
        };
        let my_state = self.state.clone().expect("state checked above");
        let my_idx = self.intern.intern(&my_state);
        let mut out = Vec::new();
        for u in self.neighbours.clone() {
            let msg_id = self.fresh_id();
            attempt.probes.insert(msg_id, u);
            out.push(render_line(&Envelope {
                src: self.addr(),
                dest: node_addr(u as usize),
                body: Body {
                    msg_id: Some(msg_id),
                    in_reply_to: None,
                    payload: Payload::State {
                        ver: self.ver,
                        state: my_idx,
                    },
                },
            }));
        }
        self.attempt = Some(attempt);
        if self.neighbours.is_empty() {
            out.extend(self.try_step());
        }
        out
    }

    fn on_state_ok(&mut self, in_reply_to: Option<u64>, state_idx: u64) -> Vec<String> {
        let Some(attempt) = &mut self.attempt else {
            return Vec::new(); // stale: the round already completed
        };
        let Some(id) = in_reply_to else {
            return Vec::new();
        };
        let Some(&neighbour) = attempt.probes.get(&id) else {
            return Vec::new(); // stale or duplicated probe id from an abandoned attempt
        };
        let Some(s) = self.intern.get(state_idx) else {
            return Vec::new(); // unknown index: treat as corrupt, let retries recover
        };
        attempt.got.insert(neighbour, s);
        self.try_step()
    }

    /// Steps `δ` if the current attempt has a complete fresh view.
    fn try_step(&mut self) -> Vec<String> {
        let complete = self
            .attempt
            .as_ref()
            .is_some_and(|a| a.got.len() == self.neighbours.len());
        if !complete {
            return Vec::new();
        }
        let attempt = self.attempt.take().expect("attempt checked above");
        let old = self.state.clone().expect("activated node has state");
        let view = Neighbourhood::from_states(attempt.got.into_values(), self.machine.beta());
        let new = self.machine.step(&old, &view);
        let changed = new != old;
        if changed {
            self.ver += 1;
        }
        let idx = self.intern.intern(&new);
        let output = WireOutput::from(self.machine.output(&new));
        self.state = Some(new);
        let receipt = self.reply(
            HUB,
            None,
            Payload::ActivateOk {
                round: attempt.round,
                changed,
                output,
                state: idx,
            },
        );
        self.last_completed = Some((attempt.round, receipt.clone()));
        vec![receipt]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wam_core::Output;

    fn flood() -> Machine<bool> {
        Machine::new(
            1,
            |l: Label| l.0 == 1,
            |&s: &bool, n| s || n.exists(|&t| t),
            |&s| if s { Output::Accept } else { Output::Reject },
        )
    }

    fn hub_line(dest: usize, msg_id: u64, payload: Payload) -> String {
        render_line(&Envelope {
            src: HUB.to_string(),
            dest: node_addr(dest),
            body: Body {
                msg_id: Some(msg_id),
                in_reply_to: None,
                payload,
            },
        })
    }

    fn born(node: &mut NodeProto<bool>, id: u64, label: u64, neighbours: Vec<u64>) {
        let out = node.handle(&hub_line(id as usize, 1, Payload::Init { node: id, label }));
        assert!(matches!(
            parse_line(&out[0]).unwrap().body.payload,
            Payload::InitOk
        ));
        let out = node.handle(&hub_line(id as usize, 2, Payload::Topology { neighbours }));
        assert!(matches!(
            parse_line(&out[0]).unwrap().body.payload,
            Payload::TopologyOk
        ));
    }

    #[test]
    fn activation_probes_then_steps_on_full_fresh_view() {
        let intern = Rc::new(StateIntern::new());
        let mut node = NodeProto::new(flood(), Rc::clone(&intern));
        born(&mut node, 0, 0, vec![1, 2]);

        let probes = node.handle(&hub_line(0, 3, Payload::Activate { round: 1 }));
        assert_eq!(probes.len(), 2, "one probe per neighbour");
        let ids: Vec<u64> = probes
            .iter()
            .map(|p| parse_line(p).unwrap().body.msg_id.unwrap())
            .collect();

        // First reply (neighbour has the flag): not enough to step.
        let one = intern.intern(&true);
        let reply = |id: u64, src: usize, state: u64| {
            render_line(&Envelope {
                src: node_addr(src),
                dest: node_addr(0),
                body: Body {
                    msg_id: Some(99),
                    in_reply_to: Some(id),
                    payload: Payload::StateOk { ver: 0, state },
                },
            })
        };
        assert!(node.handle(&reply(ids[0], 1, one)).is_empty());
        // Duplicate of the same reply: idempotent, still no step.
        assert!(node.handle(&reply(ids[0], 1, one)).is_empty());

        // Second neighbour's reply completes the view: the node steps and
        // reports accept (it picked the flag up).
        let zero = intern.intern(&false);
        let out = node.handle(&reply(ids[1], 2, zero));
        assert_eq!(out.len(), 1);
        let env = parse_line(&out[0]).unwrap();
        assert_eq!(env.dest, HUB);
        let Payload::ActivateOk {
            round,
            changed,
            output,
            ..
        } = env.body.payload
        else {
            panic!("expected activate_ok, got {env:?}");
        };
        assert_eq!(round, 1);
        assert!(changed);
        assert_eq!(output, WireOutput::Accept);
    }

    #[test]
    fn duplicate_activate_resends_receipt_without_restepping() {
        let intern = Rc::new(StateIntern::new());
        let mut node = NodeProto::new(flood(), Rc::clone(&intern));
        born(&mut node, 3, 1, vec![]);

        // No neighbours: activation steps immediately.
        let out = node.handle(&hub_line(3, 5, Payload::Activate { round: 7 }));
        assert_eq!(out.len(), 1);
        let again = node.handle(&hub_line(3, 6, Payload::Activate { round: 7 }));
        assert_eq!(out, again, "same receipt, no second step");
    }

    #[test]
    fn stale_replies_from_abandoned_attempts_are_ignored() {
        let intern = Rc::new(StateIntern::new());
        let mut node = NodeProto::new(flood(), Rc::clone(&intern));
        born(&mut node, 0, 0, vec![1]);

        let first = node.handle(&hub_line(0, 3, Payload::Activate { round: 1 }));
        let stale_id = parse_line(&first[0]).unwrap().body.msg_id.unwrap();
        // Retry: a fresh attempt with fresh probe ids.
        let second = node.handle(&hub_line(0, 4, Payload::Activate { round: 1 }));
        let fresh_id = parse_line(&second[0]).unwrap().body.msg_id.unwrap();
        assert_ne!(stale_id, fresh_id);

        let zero = intern.intern(&false);
        let stale = render_line(&Envelope {
            src: node_addr(1),
            dest: node_addr(0),
            body: Body {
                msg_id: Some(50),
                in_reply_to: Some(stale_id),
                payload: Payload::StateOk {
                    ver: 0,
                    state: zero,
                },
            },
        });
        assert!(node.handle(&stale).is_empty(), "stale reply must not step");
    }

    #[test]
    fn crash_loses_state_and_init_restores_delta0() {
        let intern = Rc::new(StateIntern::new());
        let mut node = NodeProto::new(flood(), Rc::clone(&intern));
        born(&mut node, 2, 1, vec![]);
        // Step once so ver > 0 and output is Accept.
        let out = node.handle(&hub_line(2, 9, Payload::Activate { round: 1 }));
        assert_eq!(out.len(), 1);

        let ack = node.handle(&hub_line(2, 10, Payload::Crash));
        assert!(matches!(
            parse_line(&ack[0]).unwrap().body.payload,
            Payload::CrashOk
        ));
        // Dead: probes and activations fall on the floor.
        assert!(node
            .handle(&hub_line(2, 11, Payload::Activate { round: 2 }))
            .is_empty());

        // Restart: fresh δ₀ state, fresh everything.
        born(&mut node, 2, 0, vec![]);
        let out = node.handle(&hub_line(2, 12, Payload::Activate { round: 3 }));
        let Payload::ActivateOk { output, .. } = parse_line(&out[0]).unwrap().body.payload else {
            panic!("expected activate_ok");
        };
        assert_eq!(output, WireOutput::Reject, "label 0 restarts without flag");
    }
}
