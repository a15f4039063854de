//! `micdnn` — parallel unsupervised pre-training of deep networks on a
//! many-core coprocessor, reproducing Jin, Wang, Gu, Yuan & Huang,
//! *"Training Large Scale Deep Neural Networks on the Intel Xeon Phi
//! Many-core Coprocessor"* (IPDPSW 2014).
//!
//! The paper parallelizes the two classic unsupervised building blocks —
//! the **Sparse Autoencoder** (back-propagation with L2 + KL-sparsity
//! regularization) and the **Restricted Boltzmann Machine** (CD-1) — on the
//! Intel Xeon Phi, using OpenMP threading, 512-bit vectorization, MKL for
//! the matrix products, loop fusion, a dependency graph over the CD step's
//! matrix ops, and a double-buffered loading thread that hides PCIe
//! transfers.
//!
//! This crate is the faithful functional implementation of all of that,
//! organized so that the same code serves three roles:
//!
//! * a **real training library** — kernels genuinely thread (rayon) and
//!   vectorize; models genuinely converge on real data;
//! * a **performance reproduction** — every kernel invocation carries a
//!   cost descriptor priced by `micdnn-sim`'s Xeon Phi / Xeon E5620 machine
//!   models, regenerating the paper's figures and Table I in simulated
//!   seconds (that hardware no longer being obtainable);
//! * a **benchmark body** — the stand-alone harness in `benchmark/` times
//!   the very same entry points in wall-clock.
//!
//! # Quickstart
//!
//! ```
//! use micdnn::{AeConfig, AeModel, ExecCtx, OptLevel, SparseAutoencoder};
//! use micdnn::train::{train_dataset, TrainConfig};
//! use micdnn_data::{Dataset, DigitGenerator};
//!
//! // Synthetic handwritten digits, normalized for sigmoid units.
//! let mut digits = DigitGenerator::new(12, 7);
//! let mut data = Dataset::new(digits.matrix(256));
//! data.normalize();
//!
//! // A 144 -> 64 sparse autoencoder at the paper's best optimization rung.
//! let ae = SparseAutoencoder::new(AeConfig::new(144, 64), 1);
//! let mut model = AeModel::new(ae);
//! let ctx = ExecCtx::native(OptLevel::Improved, 42);
//!
//! let cfg = TrainConfig { batch_size: 64, chunk_rows: 128, ..Default::default() };
//! let report = train_dataset(&mut model, &ctx, &data, &cfg, 5).unwrap();
//! assert!(report.final_recon() < report.initial_recon());
//! ```

mod ae_graph;
mod analytic;
mod autoencoder;
pub mod cd_graph;
mod checkpoint;
mod cnn;
mod exec;
pub mod faults;
mod finetune;
mod gradcheck;
mod graph;
mod labeled;
mod layers;
mod metrics;
mod model_io;
mod multidev;
mod optim;
mod profile;
mod rbm;
mod serve;
mod stacked;
mod supervise;
mod testdir;
pub mod train;
mod verify;

pub use ae_graph::{ae_step_graph, build_ae_graph, AeState, AeUpdate};
pub use analytic::{ae_batch_ops, estimate, rbm_cd1_ops, Algo, Estimate, Workload};
pub use autoencoder::{AeConfig, AeCost, AeScratch, SparseAutoencoder};
pub use cd_graph::{cd_step_graph, CdState};
pub use checkpoint::{
    load_checkpoint, load_checkpoint_file, save_checkpoint, save_checkpoint_file, Checkpoint,
    CheckpointError, CheckpointModel, CheckpointPolicy, TrainProgress, CHECKPOINT_FILE,
};
pub use cnn::{build_cnn_graph, CnnConfig, CnnModel, CnnNet};
pub use exec::{ExecCtx, OptLevel};
pub use finetune::{build_step_graph, FineTuneModel, FineTuneNet, SoftmaxLayer};
pub use gradcheck::{check_autoencoder, GradCheckResult};
pub use graph::NodeState;
pub use graph::{BufClass, BufId, GraphRun, NodeSpec, TaskGraph, Workspace, WorkspacePlan};
pub use labeled::{LabeledModel, LabeledNet, StepCache, StepState};
pub use layers::{Decl, Emit, Layer, Part, StackBuilder};
pub use metrics::{feature_grid, write_pgm};
pub use model_io::{
    atomic_write, load_autoencoder, load_autoencoder_file, load_rbm, save_autoencoder,
    save_autoencoder_file, save_rbm, save_rbm_file, ShapeMismatch,
};
pub use multidev::{
    block_bounds, DataParallel, DataParallelAe, DataParallelRbm, MultiDevConfig,
    MultiDevConfigError, MultiDevModelState, MultiDevState, ShardedStep,
};
pub use optim::{Optimizer, Rule, Schedule};
pub use profile::{LatencyReport, OpReport, PhaseReport, ProfileReport, Profiler, StreamReport};
pub use rbm::{Rbm, RbmConfig, RbmScratch};
pub use serve::{
    build_forward_graph, serve_requests, Request, RequestOutcome, ServeConfig, ServeConfigError,
    ServeError, ServeReport, ServeRun, ServeState,
};
pub use stacked::{LayerReport, PipelineReport, PipelineState, StackedAutoencoder};
pub use supervise::{
    train_dataset_supervised, Incident, IncidentLog, Recoverable, RunSupervisor, Stage,
    SupervisorPolicy, SupervisorPolicyError,
};
#[doc(hidden)]
pub use testdir::TestDir;
pub use train::{
    train_dataset, train_dataset_resume, train_stream, AeModel, RbmModel, TrainConfig, TrainError,
    TrainReport, UnsupervisedModel,
};
pub use verify::{
    CertifyBundle, CertifyDoc, CertifyOutcome, DevicePeak, DiagKind, Diagnostic, FindingDoc,
    Severity, VerifyReport, DEFAULT_MEM_BUDGET, VERIFY_SCHEMA,
};
