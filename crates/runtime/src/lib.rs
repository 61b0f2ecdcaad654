//! # nimbus-runtime
//!
//! The single-process Nimbus cluster: one controller thread, N worker
//! threads, and a synchronous driver handle, connected either by the
//! in-process `nimbus-net` transport or by loopback TCP sockets
//! ([`config::TransportKind`]). This is the substrate the examples,
//! integration tests, and the repository benchmark run on.
//!
//! Multi-process deployments use the `nimbus-controller` and `nimbus-worker`
//! binaries, which wire the same controller/worker nodes over a shared TCP
//! address map instead of threads.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod config;
pub mod multiproc;
pub mod quickstart;

pub use cluster::{Cluster, ClusterReport};
pub use config::{AppSetup, ClusterConfig, TransportKind};
