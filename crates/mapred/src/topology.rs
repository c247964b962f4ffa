//! Cluster topology: nodes, racks and task slots.
//!
//! Mirrors the paper's experimental setup (§IV): the *Parapluie* cluster of
//! Grid'5000, where "the standard deployment environment … allocates one
//! node to the jobtracker, one node to the namenode, while the rest of the
//! nodes is assigned to datanodes and tasktrackers". Each Parapluie node
//! has 2 × 12-core AMD 1.7 GHz CPUs, so a tasktracker runs many slots.

use serde::{Deserialize, Serialize};

/// Index of a worker (datanode + tasktracker) node.
pub type NodeId = usize;
/// Index of a rack.
pub type RackId = usize;

/// The virtual cluster layout used for chunk placement and for the
/// simulated schedule. Only *worker* nodes are modeled individually; the
/// namenode/jobtracker pair contributes the constant startup overhead in
/// [`crate::sim::SimParams`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Rack of each worker node (`racks[node]`).
    racks: Vec<RackId>,
    /// Concurrent task slots per worker node.
    slots_per_node: usize,
}

impl Topology {
    /// A topology with `nodes` workers spread round-robin over
    /// `num_racks` racks, each worker offering `slots_per_node` slots.
    ///
    /// # Panics
    /// If any argument is zero.
    pub fn new(nodes: usize, num_racks: usize, slots_per_node: usize) -> Self {
        assert!(nodes > 0 && num_racks > 0 && slots_per_node > 0);
        Self {
            racks: (0..nodes).map(|n| n % num_racks).collect(),
            slots_per_node,
        }
    }

    /// The paper's testbed: 7 Parapluie nodes = namenode + jobtracker +
    /// **5 worker nodes** (2×12 cores each → 24 slots), in 2 racks.
    pub fn parapluie() -> Self {
        Self::new(5, 2, 24)
    }

    /// Number of worker nodes.
    pub fn num_nodes(&self) -> usize {
        self.racks.len()
    }

    /// Number of distinct racks.
    pub fn num_racks(&self) -> usize {
        self.racks.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Rack of `node`.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.racks[node]
    }

    /// Slots per worker node.
    pub fn slots_per_node(&self) -> usize {
        self.slots_per_node
    }

    /// Nodes in `rack` other than `exclude`.
    pub fn rack_peers(&self, rack: RackId, exclude: NodeId) -> Vec<NodeId> {
        (0..self.num_nodes())
            .filter(|&n| self.racks[n] == rack && n != exclude)
            .collect()
    }

    /// Nodes outside `rack`.
    pub fn other_racks(&self, rack: RackId) -> Vec<NodeId> {
        (0..self.num_nodes())
            .filter(|&n| self.racks[n] != rack)
            .collect()
    }
}

/// A runnable cluster: topology plus the time-model parameters and the
/// fault plan applied to every job submitted to it.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Worker nodes, racks and slots.
    pub topology: Topology,
    /// Virtual-cluster time-model parameters.
    pub sim: crate::sim::SimParams,
    /// Fault plan applied to every job (task-attempt failures, node
    /// crashes, replica corruption, degradation, storage faults) plus the
    /// cluster's shared virtual clock.
    pub chaos: crate::chaos::ChaosPlan,
}

impl Cluster {
    /// The paper's 7-node Parapluie deployment with its measured ~25 s
    /// startup overhead.
    pub fn parapluie() -> Self {
        Self {
            topology: Topology::parapluie(),
            sim: crate::sim::SimParams::parapluie(),
            chaos: crate::chaos::ChaosPlan::none(),
        }
    }

    /// A small local cluster for tests: `nodes` workers × `slots` slots,
    /// one rack, no startup overhead.
    pub fn local(nodes: usize, slots: usize) -> Self {
        Self {
            topology: Topology::new(nodes.max(1), 1, slots.max(1)),
            sim: crate::sim::SimParams::instant(),
            chaos: crate::chaos::ChaosPlan::none(),
        }
    }

    /// Replaces the chaos plan (builder style).
    pub fn with_chaos(mut self, chaos: crate::chaos::ChaosPlan) -> Self {
        self.chaos = chaos;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_racks() {
        let t = Topology::new(5, 2, 4);
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_racks(), 2);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(1), 1);
        assert_eq!(t.rack_of(4), 0);
        assert_eq!(t.slots_per_node(), 4);
    }

    #[test]
    fn parapluie_profile() {
        let t = Topology::parapluie();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.slots_per_node(), 24);
        assert_eq!(t.num_racks(), 2);
    }

    #[test]
    fn peers_and_other_racks() {
        let t = Topology::new(4, 2, 1);
        // racks: 0 1 0 1
        assert_eq!(t.rack_peers(0, 0), vec![2]);
        assert_eq!(t.rack_peers(1, 3), vec![1]);
        assert_eq!(t.other_racks(0), vec![1, 3]);
    }

    #[test]
    #[should_panic]
    fn zero_nodes_rejected() {
        let _ = Topology::new(0, 1, 1);
    }

    #[test]
    fn single_node_topology() {
        let t = Topology::new(1, 1, 8);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.slots_per_node(), 8);
        assert!(t.rack_peers(0, 0).is_empty());
        assert!(t.other_racks(0).is_empty());
    }
}
