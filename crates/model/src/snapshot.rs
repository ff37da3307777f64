//! Epoch-stamped immutable snapshots of a materialised [`Instance`].
//!
//! A long-lived service interleaves two kinds of work over one
//! materialisation: **ingestion** (mutates the instance through the
//! incremental engine) and **query serving** (read-only, potentially long
//! running, and ideally never blocked behind an ingest). The broker between
//! them is an [`InstanceSnapshot`]: an `Arc`-shared, immutable view of the
//! instance frozen at a specific **epoch** (a counter the owner bumps once
//! per successful mutation batch).
//!
//! Snapshots are *copy-on-write*: taking one clones the live instance,
//! which shares every relation with it — O(relations), no row is copied.
//! The owner's first write to a relation after a publish copies that
//! relation alone (see [`crate::database`] on copy-on-write sharing), so a
//! batch pays only for the relations it touches, and relations it leaves
//! alone stay shared across epochs. Readers therefore run entirely against
//! frozen data (the same freezing discipline the sharded evaluator's rounds
//! use, see [`crate::parallel`]) while the owner keeps appending to the
//! live instance; no lock is held across a query. The key indexes readers
//! build on a snapshot's relations stay there and serve every later reader
//! of the same snapshot.

use crate::database::Instance;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable view of an [`Instance`], frozen at a specific epoch.
///
/// Cloning is an `Arc` bump; the underlying instance is shared, never
/// copied. Dereferences to [`Instance`], so the whole read-only query
/// surface (CQ evaluation, the sharded kernel, …) works on a snapshot
/// directly.
#[derive(Clone, Debug)]
pub struct InstanceSnapshot {
    epoch: u64,
    instance: Arc<Instance>,
}

impl InstanceSnapshot {
    /// Freezes `instance` at `epoch`: O(relations), the snapshot shares
    /// every relation with `instance` until `instance` next writes it.
    pub fn freeze(instance: &Instance, epoch: u64) -> InstanceSnapshot {
        InstanceSnapshot {
            epoch,
            instance: Arc::new(instance.clone()),
        }
    }

    /// The epoch the snapshot was frozen at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }
}

impl Deref for InstanceSnapshot {
    type Target = Instance;

    fn deref(&self) -> &Instance {
        &self.instance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;

    #[test]
    fn snapshots_are_frozen_views_of_the_live_instance() {
        let mut live = Instance::new();
        live.insert(Atom::fact("edge", &["a", "b"])).unwrap();
        let snap = InstanceSnapshot::freeze(&live, 1);
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.len(), 1);
        // Later mutations of the live instance are invisible to the snapshot.
        live.insert(Atom::fact("edge", &["b", "c"])).unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(live.len(), 2);
        let edge = |inst: &Instance| inst.relation(crate::Predicate::new("edge")).unwrap().len();
        assert_eq!(edge(&snap), 1);
        // A snapshot of a new epoch sees the mutation; the old one still
        // does not.
        let fresh = InstanceSnapshot::freeze(&live, 2);
        assert_eq!(fresh.epoch(), 2);
        assert_eq!(fresh.len(), 2);
        assert_eq!(edge(&fresh), 2);
        assert_eq!(edge(&snap), 1);
        // Clones of one snapshot share its instance.
        assert!(Arc::ptr_eq(&fresh.instance, &fresh.clone().instance));
    }

    #[test]
    fn snapshots_are_shareable_across_threads() {
        let mut live = Instance::new();
        live.insert(Atom::fact("edge", &["a", "b"])).unwrap();
        let snap = InstanceSnapshot::freeze(&live, 7);
        let counts: Vec<usize> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    let snap = snap.clone();
                    scope.spawn(move || snap.len())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(counts, vec![1; 4]);
    }
}
