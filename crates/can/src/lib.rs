//! A Content-Addressable Network (CAN) overlay — Ratnasamy et al.,
//! SIGCOMM 2001 — as used by Hyper-M (ICDE 2007) for cluster publication.
//!
//! CAN partitions a `d`-dimensional unit key space `[0,1)^d` (a torus for
//! routing purposes) into rectangular **zones**, one per node. Routing is
//! greedy: forward to the neighbour whose zone is closest to the target
//! point; joining splits the zone that contains a randomly chosen point.
//!
//! Hyper-M stores *non-zero-sized objects* (cluster spheres) in CAN, which
//! creates the replication problem of the paper's Section 5/Figure 6: a
//! sphere overlapping several zones must be replicated into each, or range
//! queries landing in a different zone would miss it. [`ops`] implements
//! that replication by neighbour-flooding from the centroid owner, and the
//! flooding range query that exploits it.
//!
//! * [`zone`] — rectangular zones, torus point/zone distances, splitting,
//!   sphere-overlap tests;
//! * [`keymap`] — affine mapping between application data space and the CAN
//!   key space (including the "index only the first k dimensions" projection
//!   used by the paper's 2-d CAN baseline);
//! * [`overlay`] — nodes, bootstrap, join/split, neighbour maintenance and
//!   greedy routing;
//! * [`ops`] — point/sphere insertion with replication, point lookup, and
//!   flooding range queries, all returning [`hyperm_sim::OpStats`] cost
//!   records;
//! * [`store`] — a node's object store as columns, and the one scan the
//!   range flood and the point lookup run over it;
//! * [`repair`] — graceful leave, crash-stop failure takeover and the
//!   background fragment-merge loop that restores the one-zone-per-node
//!   partition after churn;
//! * [`codec`] — the actual binary wire format of objects and queries; the
//!   simulators' byte counts equal these encoders' output lengths.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Seeded replay: no wall-clock read and no hash-ordered container
// (clippy.toml lists them) in a result-affecting crate.
#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    clippy::iter_over_hash_type
)]

pub mod codec;
pub mod keymap;
pub mod ops;
pub mod overlay;
pub mod repair;
pub mod store;
pub mod zone;
pub mod zoneindex;

pub use codec::{
    decode_message, decode_object, decode_query, encode_message, encode_message_into,
    encode_object, encode_query, object_wire_len, query_wire_len, CodecError, Message,
};
pub use keymap::KeyMap;
pub use ops::{InsertOutcome, ObjectRef, ObjectView, RangeOutcome, StoredObject};
pub use overlay::{CanConfig, CanNode, CanOverlay, RouteOutcome, RouteResult};
pub use repair::{RepairOutcome, DETECT_TICKS};
pub use store::ObjectStore;
pub use zone::Zone;
pub use zoneindex::ZoneIndex;
