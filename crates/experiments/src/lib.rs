//! # dora-experiments
//!
//! Regenerators for every table and figure in the DORA paper's evaluation.
//!
//! Each `figNN`/`tableNN` module computes the data behind the
//! corresponding exhibit and renders it as aligned ASCII rows/series —
//! the same numbers the paper plots, modulo the simulator substrate. Each
//! module also has a matching binary (`cargo run --release -p
//! dora-experiments --bin figNN`), and `--bin all` regenerates the whole
//! evaluation and writes the measured columns of `EXPERIMENTS.md`.
//!
//! The [`pipeline`] module owns the shared heavy lifting: the offline
//! training campaign (Section IV-C) producing the [`dora::DoraModels`]
//! bundle that every DORA-family experiment uses.
//!
//! | Module | Paper exhibit |
//! |---|---|
//! | [`fig01`] | Fig. 1 — Reddit load time vs frequency under interference |
//! | [`fig02`] | Fig. 2 — load time & energy cost vs co-runner intensity |
//! | [`fig03`] | Fig. 3 — load time + PPW vs frequency (ESPN, MSN) |
//! | [`table02`] | Table II — device specification |
//! | [`table03`] | Table III — page & co-runner classification |
//! | [`fig05`] | Fig. 5 — model error CDFs |
//! | [`fig06`] | Fig. 6 — PPW sensitivity around fopt (Youtube+high) |
//! | [`fig07`] | Fig. 7 — mean PPW & load-time CDF per governor |
//! | [`fig08`] | Fig. 8 — per-workload normalized PPW, 7 governors |
//! | [`fig09`] | Fig. 9 — Amazon/IMDB drill-down across intensities |
//! | [`fig10`] | Fig. 10 — leakage ablation & ambient sweep |
//! | [`fig11`] | Fig. 11 — fopt vs deadline (MSN+high) |
//! | [`overhead`] | Section V-H — governor overhead accounting |
//! | [`interval_study`] | Section IV-C — 50/100/250 ms decision cadences |
//! | [`model_selection`] | Section V-A — Eq. 2/3/4 surface comparison |
//! | [`ablation`] | this reproduction's own design-choice ablations |
//! | [`generalization`] | DORA on synthesized never-seen pages |

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![allow(
    clippy::disallowed_methods,
    reason = "figures and tables render quantities as plain numbers"
)]

pub mod ablation;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod generalization;
pub mod interval_study;
pub mod model_selection;
pub mod overhead;
pub mod pipeline;
pub mod report;
pub mod table02;
pub mod table03;

pub use pipeline::Pipeline;
