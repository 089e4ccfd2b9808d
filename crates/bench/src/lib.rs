//! Experiment harness reproducing every table and figure of the FARM
//! paper's evaluation (§ VI).
//!
//! Each module regenerates one artifact; the `repro` binary prints them
//! as text tables. The last three rows are beyond the paper, and `repro`
//! fails when their answer is wrong.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`tab1`] | Tab. I — LoC of the 16 Almanac use cases |
//! | [`tab4`] | Tab. 4 — HH detection time across systems |
//! | [`fig4`] | Fig. 4 — network load vs port count |
//! | [`fig5`] | Fig. 5 — switch CPU vs flow count |
//! | [`fig6`] | Fig. 6 — CPU/accuracy vs co-located seeds (4 panels) |
//! | [`fig7`] | Fig. 7 — placement utility & runtime at scale |
//! | [`fig8`] | Fig. 8 — PCIe congestion vs ASIC headroom |
//! | [`fig9`] | Fig. 9 — aggregation CPU cost, threads vs processes |
//! | [`fig10`] | Fig. 10 — shared buffer vs gRPC latency |
//! | [`tab5`] | Tab. V — feature matrix of generic M&M systems |
//! | [`ablation`] | Alg. 1 with its optional steps switched off |
//! | [`churn`] | Single-seed churn: delta replan ≡ from-scratch solve, and its cost |
//! | [`net`] | The socket event loop under thousands of connections |
//! | [`detection`] | Scenario replays scored: FARM vs sFlow/Sonata precision, recall, TTD |
//!
//! Absolute numbers come from the simulator substrate; EXPERIMENTS.md
//! records the paper-vs-measured comparison and which *shapes* hold.

#![warn(unreachable_pub)]

pub mod ablation;
pub mod churn;
pub mod detection;
pub mod fig10;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod net;
pub mod support;
pub mod tab1;
pub mod tab4;
pub mod tab5;
