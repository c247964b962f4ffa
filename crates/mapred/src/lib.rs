#![warn(missing_docs)]

//! # gepeto-mapred
//!
//! A from-scratch MapReduce engine standing in for the Hadoop stack the
//! paper runs GEPETO on (Section III). It reproduces the moving parts the
//! paper's evaluation depends on:
//!
//! - **Chunked distributed storage** ([`dfs`]): files are split into
//!   fixed-size chunks ("usually of 64 MB but the chunk size is
//!   parametrable"), replicated with HDFS's rack-aware policy (local copy,
//!   same-rack copy, off-rack copy) across the datanodes of a
//!   [`topology::Topology`]; a namenode-style metadata map tracks replica
//!   locations.
//! - **The programming model** ([`api`], [`job`]): user-defined
//!   [`api::Mapper`]s and [`api::Reducer`]s with Hadoop-style
//!   `setup`/`map`/`cleanup` lifecycles, map-side pre-aggregation in
//!   [`api::Mapper::map_block`], hash partitioning, a sort-based shuffle
//!   that presents all values of a key to a single reduce call, and
//!   counters. A task's side data — Hadoop's distributed cache — is an
//!   `Arc` field of the mapper that every task's clone shares.
//! - **Scheduling and the cluster-time model** ([`sim`]): map tasks are
//!   one-per-chunk and really execute in parallel on host threads; their
//!   measured durations are then replayed by a locality-aware slot
//!   scheduler onto a virtual cluster (default: the 7-node *Parapluie*
//!   profile of the paper) to produce Hadoop-like makespans, startup
//!   overhead and shuffle-volume accounting.
//! - **Fault handling** ([`chaos::ChaosPlan`], [`recover`]): one plan per
//!   cluster scripts deterministic task-attempt failures with bounded
//!   retries, node crashes / replica corruption / node degradation with
//!   replica failover, map re-execution and node blacklisting, and storage
//!   faults, plus driver-level checkpoint-and-retry — mirroring the
//!   jobtracker's "monitoring tasks and handling failures" role.
//! - **The execution context** ([`exec`]): one [`ExecCtx`] carries how a
//!   driver's jobs run — recorder, retry policy, run journal, shuffle
//!   memory budget — and [`ExecCtx::submit`] is the one place whole-job
//!   failures are retried.
//!
//! The canonical example — word count:
//!
//! ```
//! use gepeto_mapred::{Cluster, Dfs, Emitter, FnMapper, Group, MapReduceJob, Reducer};
//!
//! #[derive(Clone)]
//! struct Sum;
//! impl Reducer<String, u64> for Sum {
//!     type KOut = String;
//!     type VOut = u64;
//!     fn reduce(&mut self, k: &String, vs: Group<'_, u64>, out: &mut Emitter<String, u64>) {
//!         out.emit(k.clone(), vs.iter().sum());
//!     }
//! }
//!
//! let cluster = Cluster::local(3, 2);
//! let mut dfs = Dfs::new(cluster.topology.clone(), 32, 3);
//! let words: Vec<String> = "b a n a n a".split_whitespace().map(String::from).collect();
//! dfs.put_fixed("text", words, 8).unwrap();
//!
//! let tokenize = FnMapper::new(|_off, w: &String, out: &mut Emitter<String, u64>| {
//!     out.emit(w.clone(), 1);
//! });
//! let result = MapReduceJob::new("wc", &cluster, &dfs, "text", tokenize, Sum)
//!     .reducers(2)
//!     .run()
//!     .unwrap();
//! let counts: std::collections::BTreeMap<String, u64> = result.output.into_iter().collect();
//! assert_eq!(counts["a"], 3);
//! assert_eq!(counts["n"], 2);
//! assert_eq!(counts["b"], 1);
//! ```

pub mod api;
pub mod chaos;
pub mod commit;
pub mod counters;
pub mod dfs;
pub mod exec;
pub mod hash;
pub mod job;
pub mod journal;
pub mod pipeline;
pub mod recover;
pub mod sim;
pub mod spill;
pub mod topology;

pub use api::{map_records, Emitter, FnMapper, Mapper, Reducer, TaskContext};
pub use chaos::{ChaosEvent, ChaosPlan, IoFault, IoFaultPlan};
pub use commit::{CommitError, CommitReceipt};
pub use counters::Counters;
pub use dfs::{BlockId, Dfs, DfsError, RereplicationReport};
pub use exec::{DfsAccess, ExecCtx};
pub use job::{
    group_sorted, group_unsorted, FlatGroups, Group, JobError, JobResult, JobStats, KeyRuns,
    MapOnlyJob, MapReduceJob,
};
pub use journal::{JournalEntry, ReduceArtifact, RunJournal};
pub use pipeline::PipelineReport;
pub use recover::RetryPolicy;
pub use sim::{Locality, SimParams, SimReport};
pub use spill::{SpillCodec, SpillEncode};
pub use topology::{Cluster, NodeId, Topology};
