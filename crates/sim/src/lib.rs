//! Many-core coprocessor substrate: performance model + offload runtime.
//!
//! The reproduced paper measures wall-clock seconds on an Intel Xeon Phi
//! 5110P and on Xeon E5620 hosts. That hardware is not available here, so
//! this crate supplies the closest synthetic equivalent that exercises the
//! same code paths:
//!
//! * [`DeviceSpec`] / [`Platform`] — parameterized machine models with
//!   presets for the paper's exact hardware (5110P coprocessor, E5620 host,
//!   a "Matlab on the host" software platform);
//! * [`CostModel`] — a roofline-style price for every [`micdnn_kernels::OpCost`]
//!   a kernel reports: compute-bound vs bandwidth-bound, scalar vs vector
//!   issue, thread-scaling limits, and a per-parallel-region barrier cost
//!   (the synchronization expense the paper's loop-fusion step removes);
//! * [`SimClock`] + [`Trace`] — simulated time and an event log;
//! * [`Link`] — the PCIe transfer model (the paper measures 13 s to move a
//!   10 000 × 4096 chunk against 68 s of training — ~164 MB at PCIe speed
//!   plus per-chunk software overhead);
//! * [`DeviceMemory`] — an 8 GB device allocator so experiments respect the
//!   card's capacity;
//! * [`ChunkStream`] — the double-buffered loading thread of the paper's
//!   Fig. 5: a real producer thread feeds chunks through a bounded channel
//!   while the model overlaps simulated transfer and compute.
//!
//! The split keeps the reproduction honest: the *math* executed by
//! `micdnn-kernels` is real, and every *timing* claim is produced by this
//! auditable model rather than by timing a laptop and pretending it is a
//! Xeon Phi.

mod affinity;
mod arrival;
mod clock;
mod cost;
mod device;
mod export;
mod link;
mod memory;
mod multidev;
mod overlap;
mod stream;
mod trace;

pub use affinity::{Affinity, Placement};
pub use arrival::{ArrivalPattern, ArrivalSchedule};
pub use clock::SimClock;
pub use cost::CostModel;
pub use device::{DeviceSpec, Platform};
pub use export::chrome_trace_json;
pub use link::Link;
pub use memory::{DeviceAlloc, DeviceMemory, OutOfDeviceMemory};
pub use multidev::{DeviceSet, SyncModel};
pub use overlap::{Admitted, OverlapClock};
pub use stream::{
    Chunk, ChunkSource, ChunkStream, RetryEvent, RetryPolicy, SourceFault, StreamError,
    StreamOptions, StreamStats, VecSource,
};
pub use trace::{Event, EventKind, Trace};
