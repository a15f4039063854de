//! Every library item the benchmark pins, and the only file of the harness
//! that names a `micdnn*` crate or a shim. A refactor that renames or
//! removes one of these (say `with_graph_schedule`, reached here through
//! `RbmModel` and `AeModel`) has to touch this file, and `README.md` lists
//! the same items so the reach of such a change is known beforehand.
//!
//! The harness times the library only from outside: nothing here is a
//! private item, a test hook or a feature-gated path.

pub use micdnn::cd_graph::build_cd_graph;
pub use micdnn::train::{train_dataset, AeModel, RbmModel, TrainConfig, UnsupervisedModel};
pub use micdnn::{
    ae_step_graph, cd_step_graph, load_autoencoder_file, load_checkpoint_file,
    save_autoencoder_file, save_checkpoint_file, serve_requests, train_dataset_supervised,
    AeConfig, AeScratch, CheckpointPolicy, CnnConfig, CnnModel, CnnNet, DataParallelAe, ExecCtx,
    FineTuneModel, FineTuneNet, MultiDevConfig, OptLevel, ProfileReport, Profiler, Rbm, RbmConfig,
    RbmScratch, Request, ServeConfig, ServeReport, SparseAutoencoder, StackedAutoencoder,
    SupervisorPolicy, TrainProgress,
};
pub use micdnn_data::{Dataset, DigitGenerator};
pub use micdnn_kernels::conv::{conv2d_direct, im2col, maxpool2d_backward, maxpool2d_forward};
pub use micdnn_kernels::naive::gemm_ref;
pub use micdnn_kernels::rng::StreamId;
pub use micdnn_kernels::{Backend, Par};
pub use micdnn_sim::{ArrivalSchedule, ChunkStream, Link, Platform, StreamStats, VecSource};
pub use micdnn_tensor::Mat;
pub use rayon::{current_num_threads, join, run_tasks};
pub use serde_json::{from_str as json_from_str, json, Value};
