//! Fault models: what the simulated network is allowed to do to traffic.
//!
//! A [`FaultPlan`] is a declarative description of link behaviour over
//! virtual time — delay ranges (which also induce reordering), Bernoulli
//! drops and duplication, partition and link-starvation windows, and node
//! crash/restart events. The plan itself holds no randomness: the router
//! in [`run_chaos`](crate::run_chaos) samples it with a seeded generator,
//! so a `(plan, seed)` pair replays bit-identically.
//!
//! The crucial classification is [`FaultPlan::preserves_fairness`]: a plan
//! preserves the paper's fairness premises exactly when every disruption is
//! transient — finite delays, drop probability below one (so retransmission
//! eventually wins), partitions and starvation windows that heal, and no
//! crashes (a restart re-runs `δ₀`, which silently teleports the system to
//! a configuration that may be unreachable in fault-free runs). Under a
//! fairness-preserving plan the emergent verdict must agree with
//! [`wam_core::decide`]; under an unfair plan divergence is expected and is
//! reported as data, not as failure.

use wam_graph::NodeId;

/// An unordered pair of nodes (a bidirectional link).
pub type Link = (NodeId, NodeId);

fn same_link(a: Link, b: Link) -> bool {
    a == b || (a.0, a.1) == (b.1, b.0)
}

/// A half-open window of virtual time: `[from, until)`, where
/// `until = None` means "forever" (a permanent fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// First tick at which the fault is active.
    pub from: u64,
    /// First tick at which it has healed (`None` = never heals).
    pub until: Option<u64>,
}

impl Window {
    /// Is the window active at `tick`?
    pub fn active(&self, tick: u64) -> bool {
        tick >= self.from && self.until.is_none_or(|u| tick < u)
    }

    /// Does the window eventually heal?
    pub fn heals(&self) -> bool {
        self.until.is_some()
    }
}

/// A partition: while the window is active, every link with exactly one
/// endpoint inside `group` is cut (messages crossing the cut are dropped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// The isolated node set.
    pub group: Vec<NodeId>,
    /// When the cut is in force.
    pub window: Window,
}

impl Partition {
    fn cuts(&self, a: NodeId, b: NodeId, tick: u64) -> bool {
        self.window.active(tick) && (self.group.contains(&a) != self.group.contains(&b))
    }
}

/// Starvation of specific links: while the window is active, every message
/// on a listed link (either direction) is dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStarve {
    /// The starved links (unordered pairs).
    pub links: Vec<Link>,
    /// When the starvation is in force.
    pub window: Window,
}

impl LinkStarve {
    fn blocks(&self, a: NodeId, b: NodeId, tick: u64) -> bool {
        self.window.active(tick) && self.links.iter().any(|&l| same_link(l, (a, b)))
    }
}

/// A node crash at a point in virtual time, with an optional restart. The
/// crash wipes all node state; the restart re-initialises from `δ₀` (state
/// loss is the point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node that crashes.
    pub node: NodeId,
    /// When it crashes.
    pub at: u64,
    /// When it restarts (`None` = stays down).
    pub restart_at: Option<u64>,
}

/// The complete fault model for one chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Inclusive range of per-message delivery delays, in virtual ticks
    /// (sampled uniformly per delivery). A wide range reorders messages:
    /// a later send may arrive first.
    pub delay: (u64, u64),
    /// Probability that a data message is silently dropped.
    pub drop_p: f64,
    /// Probability that a delivered data message arrives twice (the copy
    /// gets an independently sampled delay).
    pub dup_p: f64,
    /// Partition windows.
    pub partitions: Vec<Partition>,
    /// Link-starvation windows.
    pub starves: Vec<LinkStarve>,
    /// Crash/restart events.
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// A perfect network: unit delay, no loss, no duplication, no
    /// partitions, no crashes.
    pub fn reliable() -> Self {
        FaultPlan {
            delay: (1, 1),
            drop_p: 0.0,
            dup_p: 0.0,
            partitions: Vec::new(),
            starves: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// A lossy, jittery, duplicating network — the standard chaos
    /// baseline. Still fairness-preserving as long as `drop_p < 1`.
    ///
    /// # Panics
    ///
    /// Panics if the delay range is empty or the probabilities are not in
    /// `[0, 1]`.
    pub fn chaotic(delay: (u64, u64), drop_p: f64, dup_p: f64) -> Self {
        assert!(delay.0 <= delay.1, "empty delay range");
        assert!((0.0..=1.0).contains(&drop_p), "drop_p out of [0, 1]");
        assert!((0.0..=1.0).contains(&dup_p), "dup_p out of [0, 1]");
        FaultPlan {
            delay,
            drop_p,
            dup_p,
            ..FaultPlan::reliable()
        }
    }

    /// Adds a partition window isolating `group` during `[from, until)`.
    #[must_use]
    pub fn with_partition(mut self, group: Vec<NodeId>, from: u64, until: Option<u64>) -> Self {
        self.partitions.push(Partition {
            group,
            window: Window { from, until },
        });
        self
    }

    /// Adds a link-starvation window over `links` during `[from, until)`.
    #[must_use]
    pub fn with_starved_links(mut self, links: Vec<Link>, from: u64, until: Option<u64>) -> Self {
        self.starves.push(LinkStarve {
            links,
            window: Window { from, until },
        });
        self
    }

    /// Adds a crash of `node` at tick `at`, restarting at `restart_at`
    /// (never, if `None`).
    #[must_use]
    pub fn with_crash(mut self, node: NodeId, at: u64, restart_at: Option<u64>) -> Self {
        self.crashes.push(CrashEvent {
            node,
            at,
            restart_at,
        });
        self
    }

    /// Is the link `a—b` blocked (by a partition or a starvation window)
    /// at `tick`?
    pub fn link_blocked(&self, a: NodeId, b: NodeId, tick: u64) -> bool {
        self.partitions.iter().any(|p| p.cuts(a, b, tick))
            || self.starves.iter().any(|s| s.blocks(a, b, tick))
    }

    /// Does this plan preserve the paper's fairness premises?
    ///
    /// `true` iff every fault is transient: messages are lost with
    /// probability below one (retransmission eventually succeeds), every
    /// partition and starvation window heals, and no node crashes. Under
    /// such a plan every node keeps completing activations, so the chaos
    /// run is a fair run of the exclusive model and its emergent verdict
    /// must match the exact decider. Crash/restart is classified unfair
    /// even with a restart: the restart resets the node to `δ₀`, moving
    /// the system to a configuration fault-free semantics may never reach.
    pub fn preserves_fairness(&self) -> bool {
        self.drop_p < 1.0
            && self.partitions.iter().all(|p| p.window.heals())
            && self.starves.iter().all(|s| s.window.heals())
            && self.crashes.is_empty()
    }

    /// A one-line human-readable summary (used by divergence reports).
    pub fn summary(&self) -> String {
        let mut parts = vec![format!(
            "delay {}..={} drop {} dup {}",
            self.delay.0, self.delay.1, self.drop_p, self.dup_p
        )];
        for p in &self.partitions {
            parts.push(format!(
                "partition {:?} [{}, {})",
                p.group,
                p.window.from,
                p.window.until.map_or("∞".to_string(), |u| u.to_string())
            ));
        }
        for s in &self.starves {
            parts.push(format!(
                "starve {:?} [{}, {})",
                s.links,
                s.window.from,
                s.window.until.map_or("∞".to_string(), |u| u.to_string())
            ));
        }
        for c in &self.crashes {
            parts.push(format!(
                "crash n{} at {} restart {}",
                c.node,
                c.at,
                c.restart_at.map_or("never".to_string(), |r| r.to_string())
            ));
        }
        parts.join("; ")
    }
}

impl From<&wam_sim::LinkStarvation> for FaultPlan {
    /// Realises a simulator-side link-starvation scenario as a network
    /// fault plan over a reliable substrate: the same links are starved
    /// over the same (tick-scaled) window, so the identical adversarial
    /// scenario runs in both worlds.
    fn from(ls: &wam_sim::LinkStarvation) -> Self {
        FaultPlan::reliable().with_starved_links(
            ls.links.clone(),
            ls.from_step as u64 * wam_sim::LinkStarvation::TICKS_PER_STEP,
            ls.heal_at
                .map(|h| h as u64 * wam_sim::LinkStarvation::TICKS_PER_STEP),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_preserves_fairness() {
        assert!(FaultPlan::reliable().preserves_fairness());
        assert!(FaultPlan::chaotic((1, 5), 0.3, 0.2).preserves_fairness());
    }

    #[test]
    fn permanent_partition_is_unfair_but_healed_is_fair() {
        let permanent = FaultPlan::reliable().with_partition(vec![0, 1], 10, None);
        assert!(!permanent.preserves_fairness());
        let healed = FaultPlan::reliable().with_partition(vec![0, 1], 10, Some(500));
        assert!(healed.preserves_fairness());
    }

    #[test]
    fn crashes_are_unfair_even_with_restart() {
        assert!(!FaultPlan::reliable()
            .with_crash(2, 50, Some(100))
            .preserves_fairness());
    }

    #[test]
    fn partition_cuts_only_across_the_boundary() {
        let p = FaultPlan::reliable().with_partition(vec![0, 1], 5, Some(10));
        assert!(p.link_blocked(0, 2, 5));
        assert!(p.link_blocked(2, 1, 9));
        assert!(!p.link_blocked(0, 1, 7), "inside the group stays connected");
        assert!(
            !p.link_blocked(2, 3, 7),
            "outside the group stays connected"
        );
        assert!(!p.link_blocked(0, 2, 4), "before the window");
        assert!(!p.link_blocked(0, 2, 10), "after healing");
    }

    #[test]
    fn starved_links_block_both_directions() {
        let p = FaultPlan::reliable().with_starved_links(vec![(3, 4)], 0, None);
        assert!(p.link_blocked(3, 4, 100));
        assert!(p.link_blocked(4, 3, 100));
        assert!(!p.link_blocked(3, 5, 100));
    }
}
