//! End-to-end benchmark of the treequery query service: a client that
//! drives `harness serve` over loopback, checks every answer against an
//! in-process engine, and a traced replay that splits the work by layer.

pub mod measure;
pub mod oracle;
pub mod trace;
pub mod wire;
pub mod workload;
