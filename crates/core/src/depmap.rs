//! Sub-ring dependency map: predicts which sub-rings of an existing
//! clustering a sequence of communication-graph edits can dirty.
//!
//! Every message is *homed* on exactly one sub-ring of the previous
//! design: an intra-cluster message on its cluster's ring, a cross-cluster
//! message on the inter ring. An edit dirties the home ring(s) of the
//! messages it touches — a retarget dirties both the old and the new home.
//! Bandwidth edits dirty nothing: demand weights feed no synthesis stage.
//!
//! The map is a *predictor for reporting and scheduling*, not a
//! correctness mechanism. Correctness of incremental re-synthesis rests
//! entirely on content keys (see [`crate::stages`]): a memoized per-ring
//! artifact is only ever reused when the exact slice of the edited graph
//! it depends on hashes identically, regardless of what this module
//! predicts. Two deliberate approximations follow from that division of
//! labor:
//!
//! * With flexible routing, a same-cluster message can ride the inter
//!   ring; the map still homes it on its cluster ring. The route stage's
//!   keys cover the flexible choice.
//! * Clustering itself can shift under an edit (the dirtied region can
//!   grow beyond the predicted rings, invalidating others through the
//!   layout hash). The map reports dirtiness *relative to the previous
//!   clustering*, which is what a "how much of the old design survives?"
//!   question means.

use crate::cluster::Clustering;
use onoc_graph::{CommDelta, CommGraph, NodeId};
use std::collections::BTreeSet;
use std::fmt;

/// One sub-ring of a [`Clustering`], by role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RingRef {
    /// The intra-cluster ring of cluster `i` (index into
    /// [`Clustering::clusters`]).
    Intra(usize),
    /// The inter-cluster ring.
    Inter,
}

// Ordered by hand, as a derive would: every intra ring by cluster index,
// then the inter ring. A derived `PartialOrd` calls `partial_cmp`, which
// clippy's L2 entry disallows (DESIGN.md §12).
impl Ord for RingRef {
    #[inline]
    fn cmp(&self, other: &RingRef) -> std::cmp::Ordering {
        match (self, other) {
            (RingRef::Intra(a), RingRef::Intra(b)) => a.cmp(b),
            (RingRef::Intra(_), RingRef::Inter) => std::cmp::Ordering::Less,
            (RingRef::Inter, RingRef::Intra(_)) => std::cmp::Ordering::Greater,
            (RingRef::Inter, RingRef::Inter) => std::cmp::Ordering::Equal,
        }
    }
}

impl PartialOrd for RingRef {
    #[inline]
    fn partial_cmp(&self, other: &RingRef) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for RingRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingRef::Intra(i) => write!(f, "intra[{i}]"),
            RingRef::Inter => write!(f, "inter"),
        }
    }
}

/// The sub-ring a `src → dst` message is homed on under `clustering`:
/// its cluster ring when both endpoints share a cluster, the inter ring
/// otherwise. Endpoints beyond the clustering's node count home on the
/// inter ring (they cannot be members of any cluster).
#[must_use]
pub fn home_ring(clustering: &Clustering, src: NodeId, dst: NodeId) -> RingRef {
    let cluster = |v: NodeId| clustering.cluster_of.get(v.index()).copied();
    match (cluster(src), cluster(dst)) {
        (Some(a), Some(b)) if a == b => RingRef::Intra(a),
        _ => RingRef::Inter,
    }
}

/// Which sub-rings of the previous design an edit sequence touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyStats {
    /// The dirtied sub-rings, deduplicated.
    pub dirty: BTreeSet<RingRef>,
    /// Sub-ring count of the previous clustering (intra rings that exist
    /// plus the inter ring if present).
    pub total_rings: usize,
    /// `true` when an edit could not be resolved against the evolving
    /// graph (e.g. a delta sequence that fails mid-way); the map then
    /// conservatively marks every ring dirty.
    pub conservative: bool,
}

impl DirtyStats {
    /// Fraction of the previous design's sub-rings that are dirty, in
    /// `[0, 1]`. An edit can dirty a ring the previous design did not
    /// have (a first cross-cluster message materializing the inter ring);
    /// the denominator grows to cover such rings so the fraction stays
    /// a proportion.
    #[must_use]
    pub fn dirty_fraction(&self) -> f64 {
        let denom = self.total_rings.max(self.dirty.len()).max(1);
        self.dirty.len() as f64 / denom as f64
    }

    /// Number of previous sub-rings the map predicts survive untouched.
    #[must_use]
    pub fn clean_rings(&self) -> usize {
        let dirty_existing = self.dirty.iter().filter(|r| self.ring_exists(r)).count();
        self.total_rings.saturating_sub(dirty_existing)
    }

    fn ring_exists(&self, _ring: &RingRef) -> bool {
        // `dirty` only ever holds rings resolvable against the previous
        // clustering plus (at most) a new inter ring; treating all of them
        // as existing keeps `clean_rings` a lower bound.
        true
    }
}

/// Maps an edit sequence to the sub-rings of `prev_clustering` it dirties.
///
/// The sequence is resolved against `prev_graph` edit by edit (a retarget
/// of a message added earlier in the same sequence resolves against the
/// intermediate graph, not the original). If some edit fails to apply the
/// map gives up and marks every ring dirty (`conservative = true`) — the
/// caller's own `apply_deltas` will surface the error with its index.
#[must_use]
pub fn dirty_rings(
    prev_clustering: &Clustering,
    prev_graph: &CommGraph,
    deltas: &[CommDelta],
) -> DirtyStats {
    let total_rings = prev_clustering.sub_ring_count();
    let mut dirty = BTreeSet::new();
    let mut current = prev_graph.clone();
    for delta in deltas {
        match delta {
            CommDelta::AddMessage { src, dst, .. } => {
                dirty.insert(home_ring(prev_clustering, *src, *dst));
            }
            CommDelta::RemoveMessage { id } => {
                if let Some(dense) = current.message_by_stable(*id) {
                    let m = current.message(dense);
                    dirty.insert(home_ring(prev_clustering, m.src, m.dst));
                }
            }
            CommDelta::Retarget { id, src, dst } => {
                if let Some(dense) = current.message_by_stable(*id) {
                    let m = current.message(dense);
                    dirty.insert(home_ring(prev_clustering, m.src, m.dst));
                }
                dirty.insert(home_ring(prev_clustering, *src, *dst));
            }
            // Bandwidth feeds no synthesis stage: topology hash, layout
            // and route keys all exclude it, so nothing goes dirty.
            CommDelta::ScaleBandwidth { .. } => {}
        }
        match current.apply_delta(delta) {
            Ok(next) => current = next,
            Err(_) => {
                let mut all: BTreeSet<RingRef> = (0..prev_clustering.clusters.len())
                    .filter(|&i| prev_clustering.clusters[i].ring.is_some())
                    .map(RingRef::Intra)
                    .collect();
                if prev_clustering.inter_ring.is_some() {
                    all.insert(RingRef::Inter);
                }
                return DirtyStats {
                    dirty: all,
                    total_rings,
                    conservative: true,
                };
            }
        }
    }
    DirtyStats {
        dirty,
        total_rings,
        conservative: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::cluster;
    use crate::cluster::ClusteringConfig;
    use onoc_graph::benchmarks;

    fn mwd_clustering() -> (CommGraph, Clustering) {
        let app = benchmarks::mwd();
        let clustering = cluster(&app, &ClusteringConfig::default()).expect("clusters");
        (app, clustering)
    }

    #[test]
    fn ring_refs_order_as_the_derive_did() {
        // Variant order first (every intra ring before the inter ring),
        // then the cluster index.
        let mut refs = vec![
            RingRef::Inter,
            RingRef::Intra(2),
            RingRef::Intra(0),
            RingRef::Intra(1),
        ];
        refs.sort();
        assert_eq!(
            refs,
            [
                RingRef::Intra(0),
                RingRef::Intra(1),
                RingRef::Intra(2),
                RingRef::Inter
            ]
        );
        assert!(RingRef::Intra(usize::MAX) < RingRef::Inter);
        assert_eq!(
            RingRef::Inter.cmp(&RingRef::Inter),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn scale_bandwidth_dirties_nothing() {
        let (app, clustering) = mwd_clustering();
        let stable = app.stable_id(app.message_ids().next().unwrap());
        let stats = dirty_rings(
            &clustering,
            &app,
            &[CommDelta::ScaleBandwidth {
                id: stable,
                factor: 2.0,
            }],
        );
        assert!(stats.dirty.is_empty());
        assert!(!stats.conservative);
        assert_eq!(stats.dirty_fraction(), 0.0);
        assert_eq!(stats.clean_rings(), stats.total_rings);
    }

    #[test]
    fn intra_message_dirties_only_its_cluster_ring() {
        let (app, clustering) = mwd_clustering();
        // Find an intra-cluster message.
        let (id, m) = app
            .message_ids()
            .map(|id| (id, app.message(id)))
            .find(|(_, m)| {
                clustering.cluster_of[m.src.index()] == clustering.cluster_of[m.dst.index()]
            })
            .expect("MWD has intra-cluster traffic");
        let home = clustering.cluster_of[m.src.index()];
        let stats = dirty_rings(
            &clustering,
            &app,
            &[CommDelta::RemoveMessage {
                id: app.stable_id(id),
            }],
        );
        assert_eq!(
            stats.dirty.iter().collect::<Vec<_>>(),
            vec![&RingRef::Intra(home)]
        );
        assert!(stats.dirty_fraction() > 0.0 && stats.dirty_fraction() < 1.0);
    }

    #[test]
    fn retarget_dirties_old_and_new_homes() {
        let (app, clustering) = mwd_clustering();
        // Cross-cluster retarget of an intra message: old home = cluster
        // ring, new home = inter ring.
        let (id, m) = app
            .message_ids()
            .map(|id| (id, app.message(id)))
            .find(|(_, m)| {
                clustering.cluster_of[m.src.index()] == clustering.cluster_of[m.dst.index()]
            })
            .expect("MWD has intra-cluster traffic");
        let home = clustering.cluster_of[m.src.index()];
        let other = app
            .node_ids()
            .find(|&v| {
                clustering.cluster_of[v.index()] != home
                    && !app
                        .messages()
                        .iter()
                        .any(|msg| msg.src == m.src && msg.dst == v)
                    && v != m.src
            })
            .expect("a node in another cluster");
        let stats = dirty_rings(
            &clustering,
            &app,
            &[CommDelta::Retarget {
                id: app.stable_id(id),
                src: m.src,
                dst: other,
            }],
        );
        assert!(stats.dirty.contains(&RingRef::Intra(home)));
        assert!(stats.dirty.contains(&RingRef::Inter));
    }

    #[test]
    fn failing_sequence_goes_conservative() {
        let (app, clustering) = mwd_clustering();
        let v = app.node_ids().next().unwrap();
        let stats = dirty_rings(
            &clustering,
            &app,
            &[CommDelta::AddMessage {
                src: v,
                dst: v, // self-loop: rejected
                bandwidth: 1.0,
            }],
        );
        assert!(stats.conservative);
        assert_eq!(stats.dirty.len(), stats.total_rings);
        assert!((stats.dirty_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sequence_resolves_against_intermediate_graph() {
        let (app, clustering) = mwd_clustering();
        // Add a message, then retarget it by the stable id it will get.
        // `dirty_rings` must resolve the retarget against the graph with
        // the addition applied.
        let nodes: Vec<NodeId> = app.node_ids().collect();
        let (src, dst) = (nodes[0], nodes[nodes.len() - 1]);
        let add = CommDelta::AddMessage {
            src,
            dst,
            bandwidth: 1.0,
        };
        let after = app.apply_delta(&add).unwrap();
        let new_id = after.stable_id(
            after
                .message_ids()
                .last()
                .expect("the added message is last"),
        );
        let stats = dirty_rings(
            &clustering,
            &app,
            &[
                add,
                CommDelta::ScaleBandwidth {
                    id: new_id,
                    factor: 3.0,
                },
            ],
        );
        assert!(!stats.conservative, "stable id must resolve mid-sequence");
    }
}
