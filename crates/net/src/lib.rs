//! # nimbus-net
//!
//! Message types, wire-size accounting, and the in-process transport used by
//! the Nimbus control plane and data plane.
//!
//! The transport exposes one [`Endpoint`] per node (driver, controller, each
//! worker). Any endpoint can send to any other, which is what allows workers
//! to exchange data directly instead of relaying through the controller — a
//! requirement for execution templates (paper Section 3.1). Traffic is
//! accounted per message tag and split into control-plane and data-plane
//! bytes so the evaluation can attribute overheads precisely.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod diagnostics;
pub mod framing;
pub mod message;
pub mod payload;
mod poll;
pub mod stats;
pub mod tcp;
pub mod transport;

pub use codec::{decode, encode, encode_into, serialized_size, CodecError};
pub use message::{
    ControllerToDriver, ControllerToWorker, DataTransfer, DriverMessage, Envelope, JobVersions,
    Message, NodeId, PartitionVersion, Tag, TransportEvent, WorkerToController,
};
pub use payload::DataPayload;
pub use stats::{NetworkStats, SharedNetworkStats};
pub use tcp::{DialPolicy, TcpEndpoint, TcpFabric};
pub use transport::{
    Endpoint, LatencyModel, NetError, NetResult, Network, Next, TransportEndpoint,
};
