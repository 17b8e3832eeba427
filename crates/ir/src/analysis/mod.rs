//! Program analyses shared by the optimizer and the virtual GPU's metric
//! collection (register-pressure estimation).

pub mod callgraph;
pub mod cfg;
pub mod dom;
pub mod liveness;
